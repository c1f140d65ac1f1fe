// fcqss — obs/obs.hpp
// Zero-overhead-when-off telemetry for the whole stack: the engines, the
// executor and the batch pipeline all report through this one module, and
// one snapshot serializes everything to a stable JSONL schema (the same
// {"bench","label","value"} rows the bench binaries emit, so
// tools/bench_diff.py can diff engine internals exactly like throughput).
//
// Three layers:
//
//   counters / gauges / histograms
//       Named, registered once, process-global.  A counter is an array of
//       cache-line-padded per-thread-stripe atomics: an instrumented hot
//       path costs one relaxed fetch_add when stats are on and one
//       predicted branch (a relaxed load of the global enable flag) when
//       they are off; totals are aggregated only at snapshot() time, so no
//       increment ever contends on a shared line with a reader.  Hot loops
//       that want literally zero per-event cost accumulate into locals and
//       add() once per batch (the engines flush per level / per run).
//
//   spans
//       RAII stage timers.  Construction records a steady-clock start,
//       destruction appends one (name, tid, start, dur, args) event to a
//       lock-free per-thread ring buffer (single writer, release-published
//       count, never reallocated), only when tracing is enabled.
//       chrome_trace_json() dumps every thread's events as Chrome
//       trace-event JSON ("X" complete events), loadable in Perfetto /
//       chrome://tracing.  Span names must be string literals (the pointer
//       is stored, not the bytes).
//
//   snapshot + sinks
//       snapshot() aggregates every metric into (name, unit, value) rows in
//       registration order; metrics_jsonl() serializes them one JSON object
//       per line.  Both may run concurrently with instrumented threads (all
//       reads are relaxed atomic loads); chrome_trace_json() may run
//       concurrently too but only sees fully published events.
//
// Toggles: the runtime flags set_stats_enabled / set_tracing_enabled, both
// default-off.  With both flags off the per-site cost is the branch alone
// — the CI bench gate holds the on-but-idle build to < 2% states/s
// overhead on top of that.
#ifndef FCQSS_OBS_OBS_HPP
#define FCQSS_OBS_OBS_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fcqss::obs {

namespace detail {

inline std::atomic<bool> g_stats{false};
inline std::atomic<bool> g_tracing{false};

/// Stripe index of the calling thread (assigned once per thread, stable).
[[nodiscard]] std::size_t thread_stripe() noexcept;

} // namespace detail

/// True when counter/gauge/histogram updates are being collected.
[[nodiscard]] inline bool stats_enabled() noexcept
{
    return detail::g_stats.load(std::memory_order_relaxed);
}

/// True when spans are being recorded into the trace rings.
[[nodiscard]] inline bool tracing_enabled() noexcept
{
    return detail::g_tracing.load(std::memory_order_relaxed);
}

void set_stats_enabled(bool on) noexcept;
void set_tracing_enabled(bool on) noexcept;

/// Monotonic nanoseconds (steady clock), the time base of all spans.
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// A monotonically increasing sum, striped across threads.  add() is exact
/// under any interleaving: stripes are atomics, threads that share a stripe
/// still fetch_add.
class counter {
public:
    static constexpr std::size_t stripe_count = 16;

    void add(std::uint64_t delta) noexcept
    {
        if (!stats_enabled()) {
            return;
        }
        stripes_[detail::thread_stripe()].v.fetch_add(delta,
                                                      std::memory_order_relaxed);
    }

    /// Sum over all stripes (racy-but-exact: every finished add is seen).
    [[nodiscard]] std::uint64_t value() const noexcept
    {
        std::uint64_t sum = 0;
        for (const stripe& s : stripes_) {
            sum += s.v.load(std::memory_order_relaxed);
        }
        return sum;
    }

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] const std::string& unit() const noexcept { return unit_; }

private:
    friend counter& get_counter(std::string_view, std::string_view);
    friend void reset();

    struct alignas(64) stripe {
        std::atomic<std::uint64_t> v{0};
    };

    stripe stripes_[stripe_count];
    std::string name_;
    std::string unit_;
};

/// A last-write or running-max double (set / set_max), one atomic cell.
class gauge {
public:
    void set(double value) noexcept
    {
        if (stats_enabled()) {
            value_.store(value, std::memory_order_relaxed);
        }
    }

    /// Raises the gauge to `value` if it is larger (high-water marks).
    void set_max(double value) noexcept
    {
        if (!stats_enabled()) {
            return;
        }
        double seen = value_.load(std::memory_order_relaxed);
        while (value > seen && !value_.compare_exchange_weak(
                                   seen, value, std::memory_order_relaxed)) {
        }
    }

    [[nodiscard]] double value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] const std::string& unit() const noexcept { return unit_; }

private:
    friend gauge& get_gauge(std::string_view, std::string_view);
    friend void reset();

    std::atomic<double> value_{0.0};
    std::string name_;
    std::string unit_;
};

/// Power-of-two-bucket histogram of non-negative samples: bucket b counts
/// values whose bit width is b (0 -> bucket 0, 1 -> 1, 2..3 -> 2, ...).
/// Buckets are plain atomics (no striping): histograms instrument coarse
/// events, not per-probe loops.
class histogram {
public:
    static constexpr std::size_t bucket_count = 64;

    void record(std::uint64_t sample) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept
    {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t sum() const noexcept
    {
        return sum_.load(std::memory_order_relaxed);
    }
    /// Upper bound of the bucket holding quantile q in [0, 1].
    [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] const std::string& unit() const noexcept { return unit_; }

private:
    friend histogram& get_histogram(std::string_view, std::string_view);
    friend void reset();

    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> buckets_[bucket_count]{};
    std::string name_;
    std::string unit_;
};

/// Returns the metric registered under `name`, creating it on first use
/// (mutex-guarded; cache the reference at hot sites).  References stay
/// valid for the life of the process — reset() zeroes values, it never
/// removes registrations.
[[nodiscard]] counter& get_counter(std::string_view name,
                                   std::string_view unit = "count");
[[nodiscard]] gauge& get_gauge(std::string_view name, std::string_view unit = "");
[[nodiscard]] histogram& get_histogram(std::string_view name,
                                       std::string_view unit = "");

/// RAII stage/phase timer.  Does nothing unless tracing was enabled at
/// construction.  `name` (and arg keys) must be string literals.
class span {
public:
    explicit span(const char* name) noexcept
    {
        if (tracing_enabled()) {
            name_ = name;
            start_ = now_ns();
        }
    }

    span(const char* name, const char* key, std::int64_t value) noexcept : span(name)
    {
        arg(key, value);
    }

    span(const span&) = delete;
    span& operator=(const span&) = delete;

    ~span()
    {
        if (name_ != nullptr) {
            record();
        }
    }

    /// Attaches up to two (key, value) args, shown in the trace viewer.
    /// May be called any time before destruction (e.g. with counts known
    /// only at the end of the stage).
    void arg(const char* key, std::int64_t value) noexcept
    {
        if (name_ == nullptr) {
            return;
        }
        for (std::size_t i = 0; i < 2; ++i) {
            if (keys_[i] == nullptr || keys_[i] == key) {
                keys_[i] = key;
                values_[i] = value;
                return;
            }
        }
    }

private:
    void record() noexcept;

    const char* name_ = nullptr;
    std::uint64_t start_ = 0;
    const char* keys_[2]{};
    std::int64_t values_[2]{};
};

/// One aggregated metric row of snapshot().
struct metric {
    std::string name;
    std::string unit;
    double value = 0;
    bool integral = true; ///< render without decimals
};

/// Aggregates every registered metric, in registration order (counters,
/// then gauges, then histograms — each histogram expands to .count / .sum /
/// .mean / .p50 / .p99 rows).  Safe to call while instrumented threads run.
[[nodiscard]] std::vector<metric> snapshot();

/// snapshot() serialized one JSON object per line, in the bench-row schema:
///   {"bench":"<bench>","label":"<name>","unit":"<unit>","value":"<num>"}
[[nodiscard]] std::string metrics_jsonl(std::string_view bench = "obs");

/// Every recorded span as Chrome trace-event JSON (a {"traceEvents":[...]}
/// object of "X" complete events with ph/ts/dur/pid/tid/args), loadable in
/// Perfetto or chrome://tracing.  Timestamps are microseconds relative to
/// the first enable of tracing.
[[nodiscard]] std::string chrome_trace_json();

/// Total recorded (not dropped) span events, across all threads.
[[nodiscard]] std::size_t trace_event_count();

/// Span events dropped because a thread's ring filled up.
[[nodiscard]] std::size_t trace_dropped_count();

/// Zeroes every counter/gauge/histogram and discards all trace events.
/// Registrations (and metric references) survive.  Must not race
/// instrumented work on other threads.
void reset();

} // namespace fcqss::obs

#endif // FCQSS_OBS_OBS_HPP
