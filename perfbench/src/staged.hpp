// perfbench — the synthesis flow driven stage by stage from the benchmark:
// the same calls synthesis_pipeline::run_one makes with default options,
// each inside a span, plus the checks every synthesized schedule must pass
// and the per-layer sums the traced runs report.
#ifndef PERFBENCH_STAGED_HPP
#define PERFBENCH_STAGED_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "pipeline/synthesis_pipeline.hpp"
#include "qss/scheduler.hpp"

namespace perfbench {

/// What the checks compare between two syntheses of one net.
struct net_verdict {
    fcqss::pipeline::pipeline_status status = fcqss::pipeline::pipeline_status::failed;
    std::size_t cycles = 0;
    std::size_t code_bytes = 0;

    friend bool operator==(const net_verdict&, const net_verdict&) = default;
};

[[nodiscard]] std::string describe(const net_verdict& v);
[[nodiscard]] net_verdict verdict_of(const fcqss::pipeline::pipeline_result& r);

struct staged_result {
    net_verdict verdict;
    std::size_t allocations = 0;
    std::size_t tasks = 0;
    std::optional<fcqss::pn::petri_net> net;
    std::optional<fcqss::qss::qss_result> schedule;
};

/// One net through parse -> classify -> structural -> schedule -> partition
/// -> codegen, one span per layer call (all under a "net" span).
[[nodiscard]] staged_result run_staged(tracer& spans, std::uint64_t request,
                                       const std::string& text);

/// Def. 3.1 through the independent checker.  Every cycle must be a finite
/// complete cycle firing every source transition; a failure there is an
/// error.  The alternative-continuation condition (b) fails on many
/// generated multi-source nets with this scheduler, so those nets are
/// counted (qss.def31_gap_nets) rather than failed.
struct schedule_check {
    std::string error;
    bool alternative_gap = false;
};

/// Re-runs schedule_reduction over the returned entries inside a
/// "qss.check" span (the Def. 3.5 checks alone), then checks Def. 3.1.
[[nodiscard]] schedule_check check_staged(tracer& spans, std::uint64_t request,
                                          const staged_result& staged);

/// Per-layer sums over a staged pass: the qss, codegen, pnio and pn metrics
/// of the catalog, into `metrics`.
void layer_metrics(const tracer& spans, const std::vector<staged_result>& staged,
                   std::size_t text_bytes, std::map<std::string, double>& metrics);

} // namespace perfbench

#endif // PERFBENCH_STAGED_HPP
