// Recorded explore graph sizes, and the --describe mode that established
// them with the naive reference exploration (pn::explore_reference).
#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "inputs.hpp"
#include "pn/reachability.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Default and held-out seeds, from `perfbench_driver --describe`.
const std::map<std::pair<std::string, std::uint64_t>, expected_space>& recorded()
{
    static const std::map<std::pair<std::string, std::uint64_t>, expected_space> table = {
        {{"explore_full", 3}, {1078272, 7225920}},
        {{"explore_full", 103}, {1049760, 6555168}},
        {{"explore_budget", 3}, {300000, 1641428}},
        {{"explore_budget", 107}, {300000, 1577042}},
    };
    return table;
}

} // namespace

const expected_space* recorded_space(const std::string& workload, std::uint64_t seed)
{
    const auto found = recorded().find({workload, seed});
    return found == recorded().end() ? nullptr : &found->second;
}

void describe_inputs(const run_config& config)
{
    const auto start = clock_type::now();
    if (config.workload == "synth_fc") {
        const auto nets = synth_inputs(config.seed, config.smoke ? 20 : 200);
        std::size_t bytes = 0;
        for (const named_text& n : nets) {
            bytes += n.text.size();
        }
        std::printf("synth_fc seed %llu: %zu nets, %zu bytes, %.3f s\n",
                    static_cast<unsigned long long>(config.seed), nets.size(), bytes,
                    seconds_since(start));
    } else if (config.workload == "serve_mix") {
        const auto pool = serve_pool(config.seed, config.smoke ? 64 : 4096);
        std::size_t bytes = 0;
        for (const named_text& n : pool) {
            bytes += n.text.size();
        }
        std::printf("serve_mix seed %llu: %zu nets, %zu bytes, %.3f s\n",
                    static_cast<unsigned long long>(config.seed), pool.size(), bytes,
                    seconds_since(start));
    } else {
        const bool budgeted = config.workload == "explore_budget";
        const explore_input input = budgeted ? explore_budget_input(config.seed, config.smoke)
                                             : explore_full_input(config.seed, config.smoke);
        std::printf("%s seed %llu: %s, %zu places, %zu transitions, predicted %.0f states "
                    "%.0f edges%s, %.0f edges out of the 300000-state level, %.3f s\n",
                    config.workload.c_str(), static_cast<unsigned long long>(config.seed),
                    input.net.name().c_str(), input.net.place_count(),
                    input.net.transition_count(), input.predicted.states(),
                    input.predicted.edges(), input.predicted.too_big ? " (too big)" : "",
                    input.predicted.flood(300000), seconds_since(start));
        fcqss::pn::reachability_options options;
        options.max_markings = budgeted ? (config.smoke ? 20000 : 300000) : (1u << 26);
        const fcqss::pn::reachability_graph graph =
            fcqss::pn::explore_reference(input.net, options);
        std::size_t edges = 0;
        for (const auto& node : graph.nodes) {
            edges += node.successors.size();
        }
        std::printf("  reference exploration: %zu states, %zu edges%s\n", graph.size(),
                    edges, graph.truncated ? " (truncated)" : "");
    }
}

} // namespace perfbench
