// serve_mix: open-loop JSON-lines traffic into an in-process svc::session
// over a pipeline::service (3 workers), sent from one generator thread.
// Each request is timed from the moment it was due, so a stall also charges
// the requests queued behind it; rejected and missing replies count as
// failed and as missing the latency limit.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/prng.hpp"
#include "inputs.hpp"
#include "pipeline/service.hpp"
#include "pipeline/synthesis_pipeline.hpp"
#include "staged.hpp"
#include "svc/json.hpp"
#include "svc/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fp = fcqss::pipeline;
namespace svc = fcqss::svc;

namespace {

constexpr double design_rate = 2000;    // req/s of the latency phase
constexpr double latency_limit_ms = 10; // p99 limit of the rate search
constexpr double search_start = 4500;   // first rate step above the design rate
constexpr double coarse_ratio = 1.5;
constexpr double fine_ratio = 1.05; // steps near the knee stay within a tenth
constexpr double max_rate = 40000;  // the search stops here
constexpr int design_parts = 10;
constexpr std::size_t saturation_window = 64;
constexpr std::size_t service_jobs = 3;
constexpr std::size_t recent_window = 512;
constexpr int repeat_percent = 30;
constexpr double missing = std::numeric_limits<double>::infinity();

/// The request stream: pool indices, 30% of them repeating one of the last
/// 512 distinct nets sent, the rest the next distinct net (cycling through
/// the pool, which is 4x larger than the service's result cache).
std::vector<std::size_t> make_sequence(std::uint64_t seed, std::size_t count, std::size_t pool)
{
    fcqss::prng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5e27e);
    std::vector<std::size_t> sequence;
    std::vector<std::size_t> recent;
    std::size_t distinct = 0;
    sequence.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        if (!recent.empty() && rng.below(100) < repeat_percent) {
            sequence.push_back(recent[rng.below(recent.size())]);
            continue;
        }
        const std::size_t next = distinct++ % pool;
        sequence.push_back(next);
        if (recent.size() < recent_window) {
            recent.push_back(next);
        } else {
            recent[next % recent_window] = next;
        }
    }
    return sequence;
}

/// Raw text of a scalar field in a reply line ("key":value), or empty.
std::string_view field(std::string_view line, std::string_view key)
{
    const std::string needle = "\"" + std::string(key) + "\":";
    const std::size_t at = line.find(needle);
    if (at == std::string_view::npos) {
        return {};
    }
    std::size_t begin = at + needle.size();
    std::size_t end = begin;
    if (begin >= line.size()) {
        return {};
    }
    if (line[begin] == '"') {
        end = line.find('"', ++begin);
    } else {
        end = line.find_first_of(",}", begin);
    }
    return end == std::string_view::npos ? std::string_view{} : line.substr(begin, end - begin);
}

std::size_t to_size(std::string_view text)
{
    std::size_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9') {
            return static_cast<std::size_t>(-1);
        }
        value = value * 10 + static_cast<std::size_t>(c - '0');
    }
    return value;
}

/// Waits until `due`: sleeps while far away, then spins.  A sleep alone
/// wakes late by a timer slack comparable to the inter-arrival gap at the
/// rates the search reaches, and that lateness would count as latency.
void wait_until(clock_type::time_point due)
{
    const auto slack = std::chrono::microseconds(200);
    if (clock_type::now() + slack < due) {
        std::this_thread::sleep_until(due - slack);
    }
    while (clock_type::now() < due) {
        std::this_thread::yield();
    }
}

struct serve_inputs {
    std::vector<named_text> pool;
    /// Per pool net: the synthesize request without its closing brace; the
    /// generator appends the request id.
    std::vector<std::string> prefixes;
};

serve_inputs make_inputs(std::uint64_t seed, bool smoke)
{
    serve_inputs in;
    in.pool = serve_pool(seed, smoke ? 256 : 4096);
    for (const named_text& n : in.pool) {
        svc::json request = svc::json::object();
        request.set("op", "synthesize");
        request.set("net", n.text);
        std::string line = request.dump();
        line.pop_back();
        in.prefixes.push_back(std::move(line));
    }
    return in;
}

struct phase_result {
    double rate = 0;
    std::size_t sent = 0;
    std::vector<double> latency_ms; ///< from due time; infinite when failed
    std::size_t rejected = 0;
    std::size_t missing = 0;
    std::size_t backlog = 0; ///< sent but unanswered when sending stopped
    double late_max_ms = 0;
    // Traced phases only.
    std::vector<double> handle_us;
    std::vector<double> queue_wait_ms;
    double reply_bytes = 0;
    std::size_t done = 0;
    std::size_t queue_depth_max = 0;
    fp::service::stats_snapshot stats;
    double c_bytes = 0;
    std::size_t ok = 0;
    clock_type::time_point first_due;
    clock_type::time_point last_reply;

    [[nodiscard]] double p(double q) const { return quantile(latency_ms, q); }
    [[nodiscard]] bool meets_limit() const
    {
        const double backlog_limit = std::max(16.0, rate * latency_limit_ms / 1000.0);
        return rejected == 0 && missing == 0 &&
               static_cast<double>(backlog) <= backlog_limit && p(0.99) <= latency_limit_ms;
    }
};

struct reply_line {
    clock_type::time_point at;
    std::string text;
};

/// Sends requests [first, first + count) of the stream through a fresh
/// service + session and checks every reply against the batch reference.
/// Open loop at `rate` when `window` is 0; otherwise closed loop, keeping
/// `window` requests outstanding (each then timed from its submission).
/// `check_code` also parses each done event and compares the attached C
/// with its byte count.
phase_result run_phase(const serve_inputs& in, const std::vector<std::size_t>& stream,
                       std::size_t first, const std::vector<net_verdict>& reference,
                       double rate, std::size_t count, bool check_code, tracer* spans,
                       outcome& out, std::size_t window = 0)
{
    const std::size_t* sequence = stream.data() + first;
    phase_result result;
    result.rate = rate;
    result.sent = count;
    std::mutex replies_mutex;
    std::vector<reply_line> replies;
    std::atomic<std::size_t> answered_count{0};
    replies.reserve(count);
    std::vector<clock_type::time_point> due(count);
    std::vector<clock_type::time_point> submitted(count);

    fp::service_options options;
    options.jobs = service_jobs;
    fp::service service(options);
    // The attached C comes last in a done event; replies that are not
    // checked in full are kept without it.
    const bool keep_code = check_code || spans != nullptr;
    svc::session session(service, [&](const std::string& line) {
        if (line.rfind("{\"event\":\"accepted\"", 0) == 0) {
            return;
        }
        const auto now = clock_type::now();
        std::string kept = keep_code ? line : line.substr(0, line.find(",\"c\":"));
        const std::lock_guard lock(replies_mutex);
        replies.push_back({now, std::move(kept)});
        answered_count.fetch_add(1, std::memory_order_release);
    });

    const auto start = clock_type::now() + std::chrono::milliseconds(1);
    const std::chrono::duration<double> gap(window > 0 ? 0.0 : 1.0 / rate);
    for (std::size_t i = 0; i < count; ++i) {
        if (window > 0) {
            while (i - answered_count.load(std::memory_order_acquire) >= window) {
                std::this_thread::yield();
            }
            due[i] = clock_type::now();
        } else {
            due[i] = start + std::chrono::duration_cast<clock_type::duration>(
                                 gap * static_cast<double>(i));
            wait_until(due[i]);
        }
        const std::string line = in.prefixes[sequence[i]] + ",\"id\":\"r" + std::to_string(i) + "\"}";
        submitted[i] = clock_type::now();
        result.late_max_ms = std::max(result.late_max_ms, ms_between(due[i], submitted[i]));
        if (spans != nullptr) {
            const tracer::scope span(*spans, "svc.handle_line", i);
            session.handle_line(line);
            result.queue_depth_max = std::max(result.queue_depth_max, service.queue_depth());
        } else {
            session.handle_line(line);
        }
    }
    {
        const std::lock_guard lock(replies_mutex);
        result.backlog = count - std::min(count, replies.size());
    }
    session.wait_idle();
    service.drain();
    result.stats = service.stats();
    for (const reply_line& reply : replies) {
        result.last_reply = std::max(result.last_reply, reply.at);
    }
    result.first_due = count > 0 ? due[0] : start;

    result.latency_ms.assign(count, missing);
    std::vector<bool> answered(count, false);
    for (const reply_line& reply : replies) {
        const std::string_view line = reply.text;
        const std::string_view id = field(line, "id");
        const std::size_t i = id.size() > 1 ? to_size(id.substr(1)) : count;
        if (i >= count || answered[i]) {
            out.mismatch("serve_mix: unexpected event " + std::string(line.substr(0, 120)));
            continue;
        }
        answered[i] = true;
        const std::string_view event = field(line, "event");
        if (event == "rejected") {
            ++result.rejected;
            continue;
        }
        const net_verdict& want = reference[sequence[i]];
        net_verdict got;
        const auto status = fp::parse_pipeline_status(field(line, "status"));
        got.status = status ? *status : fp::pipeline_status::failed;
        got.cycles = to_size(field(line, "cycles"));
        got.code_bytes = to_size(field(line, "code_bytes"));
        if (event != "done" || got != want) {
            out.mismatch("serve_mix request r" + std::to_string(i) + " (" +
                         in.pool[sequence[i]].name + "): reply " + describe(got) +
                         ", batch " + describe(want));
            continue;
        }
        if (check_code && got.status == fp::pipeline_status::ok) {
            const svc::json parsed = svc::json::parse(line);
            const svc::json* code = parsed.find("c");
            if (code == nullptr || code->as_string().size() != want.code_bytes) {
                out.mismatch("serve_mix request r" + std::to_string(i) +
                             ": attached C differs from its byte count");
                continue;
            }
        }
        result.latency_ms[i] = ms_between(due[i], reply.at);
        ++result.done;
        result.reply_bytes += static_cast<double>(line.size());
        if (got.status == fp::pipeline_status::ok) {
            ++result.ok;
            result.c_bytes += static_cast<double>(got.code_bytes);
        }
        if (spans != nullptr && field(line, "deduplicated") == "false") {
            // Waiting time: the reply's latency from submission minus the
            // synthesis's own stage time.
            const double micros = std::stod(std::string(field(line, "micros")));
            result.queue_wait_ms.push_back(ms_between(submitted[i], reply.at) - micros / 1000.0);
        }
    }
    for (std::size_t i = 0; i < count; ++i) {
        result.missing += !answered[i];
    }
    if (spans != nullptr) {
        result.handle_us = spans->durations_ms("svc.handle_line");
        for (double& us : result.handle_us) {
            us *= 1000.0;
        }
    }
    return result;
}

/// Batch results of every pool net (the reference replies must match) and
/// the family expectations: every generated family but client_server is
/// schedulable by construction, client_server is never free-choice.
std::vector<net_verdict> batch_reference(const serve_inputs& in, std::size_t jobs, outcome& out)
{
    std::vector<fp::net_source> sources;
    for (const named_text& n : in.pool) {
        sources.push_back(fp::net_source::from_text(n.name, n.text));
    }
    fp::pipeline_options options;
    options.jobs = jobs;
    const fp::batch_report report = fp::synthesis_pipeline(options).run(sources);
    std::vector<net_verdict> reference;
    out.attempted += report.results.size();
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        reference.push_back(verdict_of(report.results[i]));
        const fp::pipeline_status status = report.results[i].status;
        const bool expected = in.pool[i].family == fp::net_family::client_server
                                  ? status == fp::pipeline_status::not_free_choice
                                  : status == fp::pipeline_status::ok ||
                                        status == fp::pipeline_status::resource_limit;
        if (!expected) {
            out.mismatch("serve_mix " + in.pool[i].name + ": unexpected status " +
                         fp::to_string(status));
        }
    }
    return reference;
}

/// Failures of the design-rate phase are the run's failures.
void count_failures(const phase_result& phase, outcome& out)
{
    out.attempted += phase.sent;
    out.failed += phase.rejected + phase.missing;
    if (phase.rejected + phase.missing > 0) {
        out.errors.push_back("serve_mix: " + std::to_string(phase.rejected) + " rejected and " +
                             std::to_string(phase.missing) + " missing replies at " +
                             std::to_string(phase.rate) + " req/s");
    }
}

struct serve_setup {
    serve_inputs in;
    std::vector<net_verdict> reference;
    std::vector<std::size_t> sequence;
    double setup_s = 0;
    double design_s = 0;
    double step_s = 0;
};

std::size_t requests(double rate, double seconds)
{
    return static_cast<std::size_t>(rate * seconds);
}

/// Inputs, batch reference and request stream, then a warm-up at the
/// design rate (not recorded).
serve_setup prepare(const run_config& config, outcome& out)
{
    serve_setup s;
    s.setup_s = median_setup(3, s.in, [&] { return make_inputs(config.seed, config.smoke); });
    s.reference = batch_reference(s.in, config.jobs, out);
    s.design_s = std::max(1.0, 0.35 * config.seconds);
    s.step_s = std::max(0.2, 0.04 * config.seconds);
    s.sequence = make_sequence(config.seed,
                               std::max(requests(max_rate, s.step_s),
                                        requests(design_rate, s.design_s) + 1),
                               s.in.pool.size());
    outcome warm_up;
    static_cast<void>(run_phase(s.in, s.sequence, 0, s.reference, design_rate,
                                requests(design_rate, 0.5), false, nullptr, warm_up));
    return s;
}

/// The design-rate phase with a span around every handle_line; fills the
/// svc.* and service.* metrics.
phase_result traced_traffic(const serve_setup& s, tracer& spans, outcome& out)
{
    const phase_result phase = run_phase(s.in, s.sequence, 0, s.reference, design_rate,
                                         requests(design_rate, s.design_s), true, &spans, out);
    count_failures(phase, out);
    auto& m = out.metrics;
    m["svc.handle_line_p50_us"] = quantile(phase.handle_us, 0.5);
    m["svc.handle_line_p99_us"] = quantile(phase.handle_us, 0.99);
    m["svc.reply_bytes_mean"] =
        phase.done > 0 ? phase.reply_bytes / static_cast<double>(phase.done) : 0;
    m["svc.gen_late_max_ms"] = phase.late_max_ms;
    m["service.queue_wait_p50_ms"] = quantile(phase.queue_wait_ms, 0.5);
    m["service.queue_wait_p99_ms"] = quantile(phase.queue_wait_ms, 0.99);
    m["service.dedupe_hit_ratio"] =
        phase.stats.replied > 0
            ? static_cast<double>(phase.stats.cache_hits + phase.stats.inflight_hits) /
                  static_cast<double>(phase.stats.replied)
            : 0;
    m["service.syntheses"] = static_cast<double>(phase.stats.syntheses);
    m["service.rejected"] = static_cast<double>(phase.stats.overloaded);
    m["service.queue_depth_max"] = static_cast<double>(phase.queue_depth_max);
    return phase;
}

} // namespace

void serve_traffic_metrics(const run_config& config, outcome& out)
{
    const serve_setup s = prepare(config, out);
    tracer spans;
    static_cast<void>(traced_traffic(s, spans, out));
}

void run_serve_mix(const run_config& config, outcome& out)
{
    const serve_setup setup = prepare(config, out);
    const serve_inputs& in = setup.in;
    const std::vector<net_verdict>& reference = setup.reference;
    const std::vector<std::size_t>& sequence = setup.sequence;
    const double seconds = config.seconds;
    const double design_s = setup.design_s;
    const double step_s = setup.step_s;
    const double setup_s = setup.setup_s;

    if (config.trace) {
        tracer spans;
        const phase_result phase = traced_traffic(setup, spans, out);

        // The layer split: the staged flow over the distinct nets sent, one
        // thread, traced; then the same nets through run_one untraced, for
        // the tracing overhead.
        std::vector<std::size_t> distinct(sequence.begin(),
                                          sequence.begin() + static_cast<std::ptrdiff_t>(phase.sent));
        std::sort(distinct.begin(), distinct.end());
        distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
        std::vector<staged_result> staged;
        std::size_t text_bytes = 0;
        double gap_nets = 0;
        const auto staged_start = clock_type::now();
        for (const std::size_t j : distinct) {
            staged.push_back(run_staged(spans, j, in.pool[j].text));
            text_bytes += in.pool[j].text.size();
        }
        const double staged_ms = ms_between(staged_start, clock_type::now());
        for (std::size_t k = 0; k < distinct.size(); ++k) {
            const schedule_check check = check_staged(spans, distinct[k], staged[k]);
            if (!check.error.empty()) {
                out.mismatch("serve_mix " + in.pool[distinct[k]].name +
                             ": invalid schedule: " + check.error);
            }
            gap_nets += check.alternative_gap;
        }
        const fp::synthesis_pipeline pipe;
        const auto plain_start = clock_type::now();
        for (const std::size_t j : distinct) {
            static_cast<void>(pipe.run_one(fp::net_source::from_text(in.pool[j].name, in.pool[j].text)));
        }
        const double plain_ms = ms_between(plain_start, clock_type::now());

        auto& m = out.metrics;
        layer_metrics(spans, staged, text_bytes, m);
        m["qss.def31_gap_nets"] = gap_nets;
        m["trace.spans"] = static_cast<double>(spans.size());
        m["trace.overhead_pct"] = (staged_ms / plain_ms - 1.0) * 100.0;
        return;
    }

    // Latency at the design rate, in independent parts (a fresh service
    // each); the median over parts keeps one stall of the box from setting
    // the run's percentiles.
    std::vector<double> p50s;
    std::vector<double> p90s;
    std::vector<double> p99s;
    double late_max_ms = 0;
    double c_bytes = 0;
    double ok = 0;
    for (int part = 0; part < design_parts; ++part) {
        const std::size_t part_requests = requests(design_rate, design_s / design_parts);
        const phase_result design =
            run_phase(in, sequence, static_cast<std::size_t>(part) * part_requests, reference,
                      design_rate, part_requests, true, nullptr, out);
        count_failures(design, out);
        p50s.push_back(design.p(0.5));
        p90s.push_back(design.p(0.9));
        p99s.push_back(design.p(0.99));
        late_max_ms = std::max(late_max_ms, design.late_max_ms);
        c_bytes += design.c_bytes;
        ok += static_cast<double>(design.ok);
    }

    // Capacity: completions per second with 64 requests always outstanding
    // (a closed loop, so the service stays saturated without rejections).
    const phase_result saturated =
        run_phase(in, sequence, 0, reference, 0, requests(max_rate, step_s), false, nullptr,
                  out, saturation_window);
    count_failures(saturated, out);
    const double capacity = static_cast<double>(saturated.done) /
                            std::chrono::duration<double>(saturated.last_reply -
                                                          saturated.first_due)
                                .count();

    // The highest rate meeting the limit: a coarse ladder up from the design
    // rate, then bisection (in log space) until adjacent steps are within 5%.
    double pass = design_rate;
    double fail = 0;
    std::size_t steps = 0;
    const auto search_begin = clock_type::now();
    while ((fail == 0 || fail / pass > fine_ratio) &&
           seconds_since(search_begin) < seconds - design_s) {
        const double rate = fail == 0 ? std::max(search_start, pass * coarse_ratio)
                                      : std::sqrt(pass * fail);
        if (rate > max_rate) {
            break;
        }
        // Best two of three tries, so one scheduling stall of the box does
        // not decide a step.
        int passed = 0;
        int failed = 0;
        while (passed < 2 && failed < 2) {
            const phase_result step = run_phase(in, sequence, 0, reference, rate,
                                                requests(rate, step_s), false, nullptr, out);
            out.attempted += step.done; // content checked; rejections mark the step only
            ++steps;
            (step.meets_limit() ? passed : failed) += 1;
        }
        (passed == 2 ? pass : fail) = rate;
    }

    auto& m = out.metrics;
    m["setup_s"] = setup_s;
    m["throughput_per_s"] = capacity;
    m["latency_p50_ms"] = median(p50s);
    m["latency_tail_ms"] = std::min(median(p90s), 1e9);
    m["peak_rss_mb"] = peak_rss_mb();
    out.name("setup_s", setup_s, "s");
    out.name("serve_p50_ms", m["latency_p50_ms"], "ms");
    out.name("serve_p90_ms", m["latency_tail_ms"], "ms");
    out.name("serve_p99_ms", std::min(median(p99s), 1e9), "ms");
    out.name("serve_capacity_rps", capacity, "1/s");
    out.name("serve_max_rps", pass, "1/s");
    out.name("serve_first_failing_rps", fail, "1/s");
    out.name("c_bytes_per_net", ok > 0 ? c_bytes / ok : 0, "B");
    out.name("gen_late_max_ms", late_max_ms, "ms");
    out.name("search_steps", static_cast<double>(steps), "count");
    out.name("peak_rss_mb", m["peak_rss_mb"], "MB");
}

} // namespace perfbench
