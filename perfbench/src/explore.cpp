// explore_full and explore_budget: repeated explorations of one seeded net on
// the engine through pn::explore_space, timed per exploration.
#include <algorithm>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "obs/obs.hpp"
#include "pn/reachability.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace pn = fcqss::pn;
namespace obs = fcqss::obs;

namespace {

constexpr std::size_t budget_states = 300000;
constexpr std::size_t budget_bytes = 150u << 20;

struct explore_plan {
    const char* workload;
    bool budgeted;
    explore_input (*make)(std::uint64_t seed, bool smoke);
};

pn::reachability_options options_for(const explore_plan& plan, const run_config& config)
{
    pn::reachability_options options;
    options.threads = config.jobs;
    if (plan.budgeted) {
        options.max_markings = config.smoke ? 20000 : budget_states;
        options.max_bytes = config.smoke ? (2u << 20) : budget_bytes;
    } else {
        options.max_markings = 1u << 26; // never binds: the net is untruncated
    }
    return options;
}

struct graph_counts {
    std::uint64_t states = 0;
    std::uint64_t edges = 0;
    bool truncated = false;
};

graph_counts explore_once(const pn::petri_net& net, const pn::reachability_options& options)
{
    const pn::state_space space = pn::explore_space(net, options);
    return {space.state_count(), space.edge_count(), space.truncated()};
}

/// Checks one exploration against the oracles that apply to it.
void check_counts(const explore_plan& plan, const run_config& config,
                  const explore_input& input, const graph_counts& got, outcome& out)
{
    const std::string where = std::string(plan.workload) + " seed " +
                              std::to_string(config.seed) + ": ";
    if (plan.budgeted) {
        const std::size_t cap = options_for(plan, config).max_markings;
        if (!got.truncated || got.states != cap) {
            out.mismatch(where + "expected a binding budget of " + std::to_string(cap) +
                         " states, got " + std::to_string(got.states));
        }
    } else if (got.truncated || static_cast<double>(got.states) != input.predicted.states() ||
               static_cast<double>(got.edges) != input.predicted.edges()) {
        out.mismatch(where + "graph " + std::to_string(got.states) + "/" +
                     std::to_string(got.edges) + " differs from the component product " +
                     std::to_string(input.predicted.states()) + "/" +
                     std::to_string(input.predicted.edges()));
    }
    if (config.smoke) {
        return;
    }
    if (const expected_space* recorded = recorded_space(plan.workload, config.seed)) {
        if (got.states != recorded->states || got.edges != recorded->edges) {
            out.mismatch(where + "graph " + std::to_string(got.states) + "/" +
                         std::to_string(got.edges) + " differs from the recorded " +
                         std::to_string(recorded->states) + "/" +
                         std::to_string(recorded->edges));
        }
    }
}

double obs_value(const std::vector<obs::metric>& rows, const std::string& name)
{
    for (const obs::metric& row : rows) {
        if (row.name == name) {
            return row.value;
        }
    }
    return 0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

void run_explore(const explore_plan& plan, const run_config& config, outcome& out)
{
    explore_input input;
    const double setup_s =
        median_setup(5, input, [&] { return plan.make(config.seed, config.smoke); });
    const pn::reachability_options options = options_for(plan, config);

    // Warm-up exploration, checked against the oracles; every timed run must
    // then reproduce its counts exactly.
    const graph_counts reference = explore_once(input.net, options);
    ++out.attempted;
    check_counts(plan, config, input, reference, out);
    if (plan.budgeted) {
        // A truncated graph has no product oracle; the sequential engine
        // must keep exactly the same prefix.
        pn::reachability_options sequential = options;
        sequential.threads = 1;
        const graph_counts got = explore_once(input.net, sequential);
        ++out.attempted;
        if (got.states != reference.states || got.edges != reference.edges) {
            out.mismatch(std::string(plan.workload) + ": sequential engine kept " +
                         std::to_string(got.states) + "/" + std::to_string(got.edges) +
                         ", parallel " + std::to_string(reference.states) + "/" +
                         std::to_string(reference.edges));
        }
    }

    const auto explore_timed = [&](double& ms) {
        const auto start = clock_type::now();
        const graph_counts got = explore_once(input.net, options);
        ms = ms_between(start, clock_type::now());
        ++out.attempted;
        if (got.states != reference.states || got.edges != reference.edges ||
            got.truncated != reference.truncated) {
            out.mismatch(std::string(plan.workload) + ": exploration not repeatable");
        }
    };

    if (!config.trace) {
        std::vector<double> walls;
        const auto begin = clock_type::now();
        while (walls.size() < 3 || seconds_since(begin) < config.seconds) {
            explore_timed(walls.emplace_back());
        }
        const double p50 = median(walls);
        const double states_per_s = static_cast<double>(reference.states) / (p50 / 1000.0);
        out.metrics["setup_s"] = setup_s;
        out.metrics["throughput_per_s"] = states_per_s;
        out.metrics["latency_p50_ms"] = p50;
        out.metrics["latency_tail_ms"] = quantile(walls, 0.9);
        out.metrics["peak_rss_mb"] = peak_rss_mb();
        out.name("setup_s", setup_s, "s");
        out.name("explore_states_per_s", states_per_s, "1/s");
        out.name("explore_ms_p50", p50, "ms");
        out.name("explore_ms_p90", out.metrics["latency_tail_ms"], "ms");
        out.name("explorations", static_cast<double>(walls.size()), "count");
        out.name("peak_rss_mb", out.metrics["peak_rss_mb"], "MB");
        return;
    }

    // Traced: alternate plain and traced explorations; the traced ones run
    // with the engine's obs counters on, inside a driver span.
    tracer spans;
    std::vector<double> plain_ms;
    std::vector<double> traced_ms;
    std::vector<obs::metric> rows;
    const auto begin = clock_type::now();
    while (traced_ms.size() < 2 || seconds_since(begin) < config.seconds / 2) {
        explore_timed(plain_ms.emplace_back());
        obs::reset();
        obs::set_stats_enabled(true);
        {
            const tracer::scope span(spans, "pn.explore_space", traced_ms.size());
            explore_timed(traced_ms.emplace_back());
        }
        obs::set_stats_enabled(false);
        rows = obs::snapshot();
    }
    const auto states = static_cast<double>(reference.states);
    auto& m = out.metrics;
    m["explore.states"] = states;
    m["explore.edges"] = static_cast<double>(reference.edges);
    m["explore.arena_bytes_per_state"] = ratio(obs_value(rows, "pn.store.arena_bytes"), states);
    m["pn.par.phase_a_ms"] = obs_value(rows, "pn.par.phase_a_ns") / 1e6;
    m["pn.par.phase_b_ms"] = obs_value(rows, "pn.par.phase_b_ns") / 1e6;
    m["pn.par.phase_e_ms"] = obs_value(rows, "pn.par.phase_e_ns") / 1e6;
    m["pn.par.shard_imbalance"] = obs_value(rows, "pn.par.shard_imbalance");
    m["pn.par.candidates_per_state"] = ratio(obs_value(rows, "pn.par.candidates"), states);
    m["pn.store.probes_per_insert"] = ratio(obs_value(rows, "pn.store.hash_probes"),
                                            obs_value(rows, "pn.store.inserts"));
    m["pn.store.table_resizes"] = obs_value(rows, "pn.store.table_resizes");
    m["pn.store.budget_rejects"] = obs_value(rows, "pn.store.budget_rejects");
    m["pn.mem.evictions"] = obs_value(rows, "pn.mem.evictions");
    const double decode_hits = obs_value(rows, "pn.mem.decode_hits");
    m["pn.mem.decode_hit_ratio"] =
        ratio(decode_hits, decode_hits + obs_value(rows, "pn.mem.decode_misses"));
    m["pn.mem.spill_bytes"] = obs_value(rows, "pn.mem.spill_bytes");
    m["trace.spans"] = static_cast<double>(spans.size());
    m["trace.overhead_pct"] = (median(traced_ms) / median(plain_ms) - 1.0) * 100.0;
}

} // namespace

void run_explore_full(const run_config& config, outcome& out)
{
    run_explore({"explore_full", false, explore_full_input}, config, out);
}

void run_explore_budget(const run_config& config, outcome& out)
{
    run_explore({"explore_budget", true, explore_budget_input}, config, out);
}

} // namespace perfbench
