// Ablation: what makes the ATM net tractable despite 11 choices?  The raw
// allocation space has prod(cluster sizes) = 4608 points, but choices inside
// removed branches are moot, so only 120 distinct T-reductions remain.  The
// scheduler enumerates those classes directly; this bench reports how many
// reductions it ran to find them (obs counters) and times the scheduler.
#include "bench_util.hpp"

#include "apps/atm/atm_net.hpp"
#include "obs/obs.hpp"
#include "qss/scheduler.hpp"

namespace {

using namespace fcqss;

void report()
{
    benchutil::heading("Ablation: allocation space vs distinct T-reductions (ATM net)");
    const auto net = atm::build_atm_net();
    obs::reset();
    obs::set_stats_enabled(true);
    const qss::qss_result result = qss::quasi_static_schedule(net);
    obs::set_stats_enabled(false);
    const auto counter = [](const char* name) {
        return std::to_string(obs::get_counter(name).value());
    };
    benchutil::row("choice clusters", std::to_string(result.clusters.size()));
    benchutil::row("allocation space", std::to_string(result.allocations_enumerated));
    benchutil::row("distinct T-reductions (paper: 120)",
                   std::to_string(result.entries.size()));
    benchutil::row("dedup factor",
                   std::to_string(static_cast<double>(result.allocations_enumerated) /
                                  static_cast<double>(result.entries.size())));
    benchutil::row("prefix reductions", counter("qss.prefix_reductions"));
    benchutil::row("leaf reductions", counter("qss.leaf_reductions"));
    obs::reset();
}

void bm_quasi_static_schedule(benchmark::State& state)
{
    const auto net = atm::build_atm_net();
    for (auto _ : state) {
        benchmark::DoNotOptimize(qss::quasi_static_schedule(net));
    }
}
BENCHMARK(bm_quasi_static_schedule);

} // namespace

FCQSS_BENCH_MAIN(report)
