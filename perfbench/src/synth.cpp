// synth_fc: batches of seeded free-choice nets, given as `.pn` text to
// pipeline::synthesis_pipeline::run.  The traced run replaces the batch call
// with the same staged flow driven from here (staged.hpp), one span per call
// into a layer, so the stage split is measured from outside the program.
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "inputs.hpp"
#include "pipeline/synthesis_pipeline.hpp"
#include "staged.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fp = fcqss::pipeline;

namespace {

/// Nets generated schedulable by construction may only come back ok or
/// resource-limit.
bool expected_status(fp::pipeline_status status)
{
    return status == fp::pipeline_status::ok || status == fp::pipeline_status::resource_limit;
}

} // namespace

void run_synth_fc(const run_config& config, outcome& out)
{
    std::vector<named_text> nets;
    const double setup_s = median_setup(3, nets, [&] {
        return synth_inputs(config.seed, config.smoke ? 20 : 200);
    });
    std::vector<fp::net_source> sources;
    std::size_t text_bytes = 0;
    for (const named_text& n : nets) {
        sources.push_back(fp::net_source::from_text(n.name, n.text));
        text_bytes += n.text.size();
    }
    fp::pipeline_options options;
    options.jobs = config.jobs;
    const fp::synthesis_pipeline pipe(options);

    // The traced run times a plain batch first, for the tracing overhead.
    double plain_ms = 0;
    if (config.trace) {
        plain_ms = pipe.run(sources).wall_micros / 1000.0;
    }

    // The staged flow over every net, then the checks: expected statuses and
    // Def. 3.1 of every ok schedule.  Its verdicts are the reference every
    // batch must reproduce; in the traced run it is the traced batch.
    tracer spans;
    std::vector<staged_result> staged(nets.size());
    std::vector<schedule_check> checks(nets.size());
    double staged_ms = 0;
    clock_type::time_point staged_end;
    {
        fcqss::exec::executor pool(config.jobs);
        const auto start = clock_type::now();
        pool.for_each_index(nets.size(), [&](std::size_t i) {
            staged[i] = run_staged(spans, i, nets[i].text);
        });
        staged_end = clock_type::now();
        staged_ms = ms_between(start, staged_end);
        pool.for_each_index(nets.size(),
                            [&](std::size_t i) { checks[i] = check_staged(spans, i, staged[i]); });
    }
    out.attempted += nets.size();
    double gap_nets = 0;
    double undecided = 0;
    for (std::size_t i = 0; i < nets.size(); ++i) {
        const fp::pipeline_status status = staged[i].verdict.status;
        if (!expected_status(status)) {
            out.mismatch("synth_fc " + nets[i].name + ": unexpected status " +
                         fp::to_string(status));
        } else if (!checks[i].error.empty()) {
            out.mismatch("synth_fc " + nets[i].name + ": invalid schedule: " + checks[i].error);
        }
        gap_nets += checks[i].alternative_gap;
        undecided += status == fp::pipeline_status::resource_limit;
    }

    if (!config.trace) {
        // One timed batch holding the nets `passes` times over, enough to
        // fill the run's time (judged by the staged pass), each pass in
        // reverse order.  Back-to-back passes let one pass's stragglers
        // overlap the next pass's light nets, and reversed passes put the
        // heaviest nets (near the end of the seed-7 order) early, so the
        // batch does not end on one lone straggler.  The run then measures
        // steady throughput; the single-pass straggler tail is the traced
        // run's pipeline.tail_ms.
        const auto passes = static_cast<std::size_t>(
            std::max(2.0, std::ceil(config.seconds * 1000.0 / staged_ms)));
        std::vector<fp::net_source> stream;
        for (std::size_t pass = 0; pass < passes; ++pass) {
            stream.insert(stream.end(), sources.rbegin(), sources.rend());
        }
        const fp::batch_report report = pipe.run(stream);
        std::vector<double> net_ms;
        out.attempted += report.results.size();
        for (std::size_t k = 0; k < report.results.size(); ++k) {
            const fp::pipeline_result& r = report.results[k];
            const std::size_t i = nets.size() - 1 - k % nets.size();
            net_ms.push_back(r.timings.total() / 1000.0);
            if (verdict_of(r) != staged[i].verdict) {
                out.mismatch("synth_fc " + nets[i].name + ": batch " + describe(verdict_of(r)) +
                             ", staged flow " + describe(staged[i].verdict));
            }
        }
        auto& m = out.metrics;
        m["setup_s"] = setup_s;
        m["throughput_per_s"] = report.nets_per_second();
        m["latency_p50_ms"] = report.wall_micros / 1000.0 / static_cast<double>(passes);
        m["latency_tail_ms"] = quantile(net_ms, 0.95);
        m["peak_rss_mb"] = peak_rss_mb();
        out.name("setup_s", setup_s, "s");
        out.name("synth_nets_per_s", m["throughput_per_s"], "1/s");
        out.name("decided_ratio", 1.0 - undecided / static_cast<double>(nets.size()), "ratio");
        out.name("ms_per_200_nets", m["latency_p50_ms"], "ms");
        out.name("net_ms_p50", quantile(net_ms, 0.5), "ms");
        out.name("net_ms_p95", m["latency_tail_ms"], "ms");
        out.name("def31_gap_nets", gap_nets, "count");
        out.name("passes", static_cast<double>(passes), "count");
        out.name("peak_rss_mb", m["peak_rss_mb"], "MB");
        return;
    }

    auto& m = out.metrics;
    layer_metrics(spans, staged, text_bytes, m);
    // Worker utilisation and the straggler tail of the staged batch: the
    // tail runs from the moment the first worker finds no more nets to the
    // end of the batch.
    std::map<std::uint64_t, clock_type::time_point> last_end;
    double busy_ms = 0;
    for (const span_record& s : spans.spans()) {
        if (std::string_view(s.name) == "net") {
            busy_ms += s.ms();
            auto& end = last_end[s.thread];
            end = std::max(end, s.end);
        }
    }
    m["pipeline.worker_util"] = busy_ms / (staged_ms * static_cast<double>(config.jobs));
    clock_type::time_point first_idle = staged_end;
    for (const auto& [thread, end] : last_end) {
        first_idle = std::min(first_idle, end);
    }
    m["pipeline.tail_ms"] =
        last_end.size() < config.jobs ? staged_ms : ms_between(first_idle, staged_end);
    m["qss.def31_gap_nets"] = gap_nets;
    m["trace.spans"] = static_cast<double>(spans.size());
    m["trace.overhead_pct"] = (staged_ms / plain_ms - 1.0) * 100.0;
    serve_traffic_metrics(config, out);
}

} // namespace perfbench
