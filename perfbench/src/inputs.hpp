// perfbench — seeded workload inputs.  Every workload regenerates its inputs
// from the run's --seed with the library's own net_generator; the program
// under test sees only the generated nets (as `.pn` text where a user would
// hand it text).  Seeds pick different nets, but each workload holds the
// property that sets its cost fixed across seeds (see README.md), so runs on
// different seeds measure the same amount of work.
#ifndef PERFBENCH_INPUTS_HPP
#define PERFBENCH_INPUTS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/net_generator.hpp"
#include "pn/petri_net.hpp"

namespace perfbench {

struct named_text {
    std::string name;
    std::string text;
    /// Generator family, for the status expectations of the checks.
    fcqss::pipeline::net_family family = fcqss::pipeline::net_family::free_choice;
};

/// Scheduling-cost class of a net: one class outside the free-choice class,
/// one above the scheduler's allocation cap; from 4096 allocations up the
/// exact allocation count with the eighth-octave of places + transitions,
/// below that the quarter-octave of allocation count x (places +
/// transitions).
[[nodiscard]] std::int64_t cost_class(const fcqss::pn::petri_net& net);


/// synth_fc: `count` free-choice nets (token_load 2) from generator `seed`
/// whose cost classes repeat, position by position, those of the first
/// `count` nets of generator seed 7 — so seed 7 yields exactly those nets.
[[nodiscard]] std::vector<named_text> synth_inputs(std::uint64_t seed, std::size_t count);

/// serve_mix: `count` distinct nets interleaving five families (mg,
/// layered, bursty, fc, client_server; depth 4), keeping only nets whose
/// allocation count is at most 256.
[[nodiscard]] std::vector<named_text> serve_pool(std::uint64_t seed, std::size_t count);

/// State and edge counts of a net's full reachability graph, predicted from
/// its weakly connected components: they fire independently, so the graph is
/// the product of the component graphs.  Components are explored on their
/// own; `too_big` is set when a component alone exceeds `component_cap`.
/// A product state's BFS depth is the sum of its components' depths, so
/// the states per BFS level are the convolution of the components' ones.
struct product_size {
    /// States per BFS level, and edges out of each level.
    std::vector<double> levels;
    std::vector<double> level_edges;
    bool too_big = false;

    [[nodiscard]] double states() const;
    [[nodiscard]] double edges() const;

    /// Edges out of the first BFS level whose cumulative state count reaches
    /// `budget` (`back` = 0), or out of a level `back` levels before it: the
    /// successors a level-synchronous engine buffers in its last levels, and
    /// mostly rejects once the budget binds.
    [[nodiscard]] double flood(double budget, std::size_t back = 0) const;
};
[[nodiscard]] product_size predict_space(const fcqss::pn::petri_net& net,
                                         std::size_t component_cap = 1u << 16);

struct explore_input {
    fcqss::pn::petri_net net;
    std::string text;
    product_size predicted;
};

/// explore_full: the first mg net (sources 6, depth 6, credit 1) of
/// generator `seed` whose predicted state count and place count lie near
/// those of generator seed 3's first net (1,078,272 states).
[[nodiscard]] explore_input explore_full_input(std::uint64_t seed, bool smoke);

/// explore_budget: the first mg net (sources 8, depth 12, credit 1) of
/// generator `seed` with a place count near generator seed 3's first net
/// (126 places) and a state space far above the 300,000-state budget.
[[nodiscard]] explore_input explore_budget_input(std::uint64_t seed, bool smoke);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HPP
