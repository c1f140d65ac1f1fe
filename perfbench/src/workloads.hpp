// perfbench — the four workloads.  Each fills an outcome with its metrics
// and correctness checks for one run; the plain run reports end-to-end
// metrics, the traced run (config.trace) per-layer metrics.
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "bench.hpp"

namespace perfbench {

void run_synth_fc(const run_config& config, outcome& out);
void run_serve_mix(const run_config& config, outcome& out);
void run_explore_full(const run_config& config, outcome& out);
void run_explore_budget(const run_config& config, outcome& out);

/// The serve_mix traffic at its design rate, traced: fills the svc.* and
/// service.* per-layer metrics.  The traced synth_fc run calls it too, so
/// those layers are measured on a workload BENCHMARK.json lists.
void serve_traffic_metrics(const run_config& config, outcome& out);

/// Prints what the seed generates for a workload (sizes, scan counts) and
/// the explore graphs' exact counts from the naive reference exploration —
/// the values checked in to expected.cpp for the recorded seeds.
void describe_inputs(const run_config& config);

/// Exact explore counts recorded for a seed, if any.
struct expected_space {
    std::uint64_t states = 0;
    std::uint64_t edges = 0;
};
[[nodiscard]] const expected_space* recorded_space(const std::string& workload,
                                                   std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
