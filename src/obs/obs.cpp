#include "obs/obs.hpp"

#include <bit>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace fcqss::obs {

namespace {

/// One span event, fully materialized at span destruction.  Name and arg
/// keys are string literals: the pointers are stored, never the bytes.
struct trace_event {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
    const char* keys[2];
    std::int64_t values[2];
};

/// Per-thread event buffer: the owning thread appends and release-publishes
/// `count`; dumpers acquire-load `count` and read only below it.  `events`
/// is sized once at registration and never reallocates, so concurrent
/// readers never chase a moving buffer.
struct thread_ring {
    static constexpr std::size_t capacity = 8192;

    explicit thread_ring(std::uint32_t tid_) : tid(tid_) { events.resize(capacity); }

    std::uint32_t tid;
    std::vector<trace_event> events;
    std::atomic<std::size_t> count{0};
    std::atomic<std::uint64_t> dropped{0};
};

struct registry {
    std::mutex mutex;
    // deques: references handed out by get_* stay valid across growth.
    std::deque<counter> counters;
    std::deque<gauge> gauges;
    std::deque<histogram> histograms;
    std::unordered_map<std::string, counter*> counter_names;
    std::unordered_map<std::string, gauge*> gauge_names;
    std::unordered_map<std::string, histogram*> histogram_names;
    // Rings are owned here for the life of the process (a worker thread's
    // events must survive the thread); cleared-not-freed on reset().
    std::vector<std::unique_ptr<thread_ring>> rings;
};

registry& reg()
{
    static registry* instance = new registry; // never destroyed: spans may
    return *instance;                         // record during static teardown
}

std::atomic<std::uint64_t> g_trace_epoch_ns{0};

thread_local thread_ring* t_ring = nullptr;

thread_ring& local_ring()
{
    if (t_ring == nullptr) {
        registry& r = reg();
        const std::lock_guard lock(r.mutex);
        r.rings.push_back(
            std::make_unique<thread_ring>(static_cast<std::uint32_t>(r.rings.size())));
        t_ring = r.rings.back().get();
    }
    return *t_ring;
}

void json_escape_into(std::string& out, std::string_view text)
{
    for (const char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
                out += buffer;
            } else {
                out += c;
            }
        }
    }
}

} // namespace

namespace detail {

std::size_t thread_stripe() noexcept
{
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t stripe =
        next.fetch_add(1, std::memory_order_relaxed) % counter::stripe_count;
    return stripe;
}

} // namespace detail

void set_stats_enabled(bool on) noexcept
{
    detail::g_stats.store(on, std::memory_order_relaxed);
}

void set_tracing_enabled(bool on) noexcept
{
    if (on) {
        std::uint64_t expected = 0;
        g_trace_epoch_ns.compare_exchange_strong(expected, now_ns(),
                                                 std::memory_order_relaxed);
    }
    detail::g_tracing.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void histogram::record(std::uint64_t sample) noexcept
{
    if (!stats_enabled()) {
        return;
    }
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
    buckets_[std::bit_width(sample)].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t histogram::quantile(double q) const noexcept
{
    const std::uint64_t total = count();
    if (total == 0) {
        return 0;
    }
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total));
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < bucket_count; ++b) {
        cumulative += buckets_[b].load(std::memory_order_relaxed);
        if (cumulative > rank) {
            return b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
        }
    }
    return ~std::uint64_t{0};
}

// The three registries share this shape; the bodies stay in the friend
// functions because they write the metrics' private name/unit fields.
#define FCQSS_OBS_GET_METRIC(pool, names)                                                \
    registry& r = reg();                                                                 \
    const std::lock_guard lock(r.mutex);                                                 \
    const auto it = r.names.find(std::string(name));                                     \
    if (it != r.names.end()) {                                                           \
        return *it->second;                                                              \
    }                                                                                    \
    auto& metric = r.pool.emplace_back();                                                \
    metric.name_ = std::string(name);                                                    \
    metric.unit_ = std::string(unit);                                                    \
    r.names.emplace(metric.name_, &metric);                                              \
    return metric

counter& get_counter(std::string_view name, std::string_view unit)
{
    FCQSS_OBS_GET_METRIC(counters, counter_names);
}

gauge& get_gauge(std::string_view name, std::string_view unit)
{
    FCQSS_OBS_GET_METRIC(gauges, gauge_names);
}

histogram& get_histogram(std::string_view name, std::string_view unit)
{
    FCQSS_OBS_GET_METRIC(histograms, histogram_names);
}

#undef FCQSS_OBS_GET_METRIC

void span::record() noexcept
{
    const std::uint64_t end = now_ns();
    thread_ring& ring = local_ring();
    const std::size_t at = ring.count.load(std::memory_order_relaxed);
    if (at >= thread_ring::capacity) {
        ring.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    trace_event& event = ring.events[at];
    event.name = name_;
    event.start_ns = start_;
    event.dur_ns = end - start_;
    event.keys[0] = keys_[0];
    event.keys[1] = keys_[1];
    event.values[0] = values_[0];
    event.values[1] = values_[1];
    ring.count.store(at + 1, std::memory_order_release);
}

std::vector<metric> snapshot()
{
    registry& r = reg();
    const std::lock_guard lock(r.mutex);
    std::vector<metric> rows;
    rows.reserve(r.counters.size() + r.gauges.size() + 5 * r.histograms.size());
    for (const counter& c : r.counters) {
        rows.push_back({c.name(), c.unit(), static_cast<double>(c.value()), true});
    }
    for (const gauge& g : r.gauges) {
        rows.push_back({g.name(), g.unit(), g.value(), false});
    }
    for (const histogram& h : r.histograms) {
        const std::uint64_t count = h.count();
        const std::uint64_t sum = h.sum();
        rows.push_back({h.name() + ".count", "count", static_cast<double>(count), true});
        rows.push_back({h.name() + ".sum", h.unit(), static_cast<double>(sum), true});
        rows.push_back({h.name() + ".mean", h.unit(),
                        count == 0 ? 0.0
                                   : static_cast<double>(sum) /
                                         static_cast<double>(count),
                        false});
        rows.push_back({h.name() + ".p50", h.unit(),
                        static_cast<double>(h.quantile(0.50)), true});
        rows.push_back({h.name() + ".p99", h.unit(),
                        static_cast<double>(h.quantile(0.99)), true});
    }
    return rows;
}

std::string metrics_jsonl(std::string_view bench)
{
    std::string out;
    for (const metric& row : snapshot()) {
        out += "{\"bench\":\"";
        json_escape_into(out, bench);
        out += "\",\"label\":\"";
        json_escape_into(out, row.name);
        out += "\",\"unit\":\"";
        json_escape_into(out, row.unit);
        out += "\",\"value\":\"";
        char buffer[48];
        if (row.integral) {
            std::snprintf(buffer, sizeof buffer, "%.0f", row.value);
        } else {
            std::snprintf(buffer, sizeof buffer, "%.6g", row.value);
        }
        out += buffer;
        out += "\"}\n";
    }
    return out;
}

std::string chrome_trace_json()
{
    registry& r = reg();
    const std::lock_guard lock(r.mutex);
    const std::uint64_t epoch = g_trace_epoch_ns.load(std::memory_order_relaxed);
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    char buffer[96];
    for (const std::unique_ptr<thread_ring>& ring : r.rings) {
        const std::size_t count = ring->count.load(std::memory_order_acquire);
        for (std::size_t i = 0; i < count; ++i) {
            const trace_event& event = ring->events[i];
            if (!first) {
                out += ",";
            }
            first = false;
            out += "\n{\"name\":\"";
            json_escape_into(out, event.name);
            const double ts =
                static_cast<double>(event.start_ns > epoch ? event.start_ns - epoch
                                                           : 0) /
                1000.0;
            const double dur = static_cast<double>(event.dur_ns) / 1000.0;
            std::snprintf(buffer, sizeof buffer,
                          "\",\"cat\":\"fcqss\",\"ph\":\"X\",\"ts\":%.3f,"
                          "\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                          ts, dur, ring->tid);
            out += buffer;
            if (event.keys[0] != nullptr) {
                out += ",\"args\":{";
                for (std::size_t k = 0; k < 2 && event.keys[k] != nullptr; ++k) {
                    if (k != 0) {
                        out += ",";
                    }
                    out += "\"";
                    json_escape_into(out, event.keys[k]);
                    std::snprintf(buffer, sizeof buffer, "\":%lld",
                                  static_cast<long long>(event.values[k]));
                    out += buffer;
                }
                out += "}";
            }
            out += "}";
        }
    }
    out += "\n]}\n";
    return out;
}

std::size_t trace_event_count()
{
    registry& r = reg();
    const std::lock_guard lock(r.mutex);
    std::size_t total = 0;
    for (const std::unique_ptr<thread_ring>& ring : r.rings) {
        total += ring->count.load(std::memory_order_acquire);
    }
    return total;
}

std::size_t trace_dropped_count()
{
    registry& r = reg();
    const std::lock_guard lock(r.mutex);
    std::size_t total = 0;
    for (const std::unique_ptr<thread_ring>& ring : r.rings) {
        total += ring->dropped.load(std::memory_order_relaxed);
    }
    return total;
}

void reset()
{
    registry& r = reg();
    const std::lock_guard lock(r.mutex);
    for (counter& c : r.counters) {
        for (counter::stripe& s : c.stripes_) {
            s.v.store(0, std::memory_order_relaxed);
        }
    }
    for (gauge& g : r.gauges) {
        g.value_.store(0.0, std::memory_order_relaxed);
    }
    for (histogram& h : r.histograms) {
        h.count_.store(0, std::memory_order_relaxed);
        h.sum_.store(0, std::memory_order_relaxed);
        for (std::atomic<std::uint64_t>& bucket : h.buckets_) {
            bucket.store(0, std::memory_order_relaxed);
        }
    }
    for (const std::unique_ptr<thread_ring>& ring : r.rings) {
        ring->count.store(0, std::memory_order_relaxed);
        ring->dropped.store(0, std::memory_order_relaxed);
    }
    g_trace_epoch_ns.store(tracing_enabled() ? now_ns() : 0,
                           std::memory_order_relaxed);
}

} // namespace fcqss::obs
