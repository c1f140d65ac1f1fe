// fcqss — pn/reachability.hpp
// Explicit-state exploration with a budget, and the queries over its
// result.  explore_space() runs the engine and returns the compact
// state_space; explore_reference() is the naive BFS that builds a
// reachability_graph of marking objects, kept as the reference the engine
// is compared against.  Every entry point takes the one option struct,
// reachability_options (pn/state_space.hpp).
#ifndef FCQSS_PN_REACHABILITY_HPP
#define FCQSS_PN_REACHABILITY_HPP

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "pn/firing.hpp"
#include "pn/marking.hpp"
#include "pn/petri_net.hpp"
#include "pn/state_space.hpp"

namespace fcqss::pn {

/// One explored marking and its outgoing firings.
struct reachability_node {
    marking state;
    /// (transition fired, index of successor node), ascending by transition.
    std::vector<std::pair<transition_id, std::size_t>> successors;
};

/// The (partial) reachability graph from the initial marking.
struct reachability_graph {
    std::vector<reachability_node> nodes;
    /// True when exploration stopped because a budget was hit; every
    /// "for all reachable markings" verdict is then only valid for the
    /// explored region.
    bool truncated = false;

    [[nodiscard]] std::size_t size() const noexcept { return nodes.size(); }
};

/// Breadth-first exploration from the net's initial marking on the
/// arena-interned engine: dispatches on options.threads between
/// explore_state_space() and explore_parallel() and returns the compact
/// form, which the queries below answer from without building marking
/// objects.
[[nodiscard]] state_space explore_space(const petri_net& net,
                                        const reachability_options& options = {});

/// The pre-engine exploration: a naive BFS deduplicating through an
/// unordered_map of marking objects.  Visits exactly the same states and
/// edges as explore_space(), in the same order — kept as the reference for
/// differential tests and for before/after rows in bench_scaling.
[[nodiscard]] reachability_graph
explore_reference(const petri_net& net, const reachability_options& options = {});

/// A reachable dead marking, if exploration finds one (nullopt when the
/// explored region is deadlock-free; see reachability_graph::truncated).
[[nodiscard]] std::optional<marking> find_deadlock(const petri_net& net,
                                                   const reachability_graph& graph);

/// True when `target` appears in the explored region.
[[nodiscard]] bool is_reachable(const reachability_graph& graph, const marking& target);

/// A shortest firing sequence from the initial marking to `target`, or
/// nullopt when not present in the explored region.
[[nodiscard]] std::optional<firing_sequence>
shortest_path_to(const reachability_graph& graph, const marking& target);

/// Max token count per place over the explored region (bounds witness).
[[nodiscard]] std::vector<std::int64_t> place_bounds(const reachability_graph& graph);

// -- Compact-form queries ---------------------------------------------------
//
// The overloads below answer the same questions straight from the compact
// state_space: tokens are decoded one state at a time into a reused buffer
// and lookups go through the store's hash table, so nothing is ever
// materialized into marking objects.
// Each is observationally identical to its reachability_graph counterpart
// (pinned by tests/test_parallel_explore.cpp).

/// First deadlocked state in id order, if any (the marking is one
/// space.marking_of() away).  States with outgoing edges are skipped
/// outright: an edge means some transition fired there.  Sound on reduced
/// graphs too: a stubborn subset always contains an enabled transition, so
/// zero recorded edges still means "dead or budget-dropped", and the
/// enabled re-check below settles which.
[[nodiscard]] std::optional<state_id> find_deadlock(const petri_net& net,
                                                    const state_space& space);

/// Every deadlocked state in the explored region, ascending by id.  On a
/// non-truncated stubborn-reduced exploration this is exactly the set of
/// reachable dead markings of the full graph (pn/stubborn.hpp).
[[nodiscard]] std::vector<state_id> deadlock_states(const petri_net& net,
                                                    const state_space& space);

/// True when `target` is an explored state (one hash lookup, no scan).
[[nodiscard]] bool is_reachable(const state_space& space, const marking& target);

/// A shortest firing sequence from the initial marking to `target`, or
/// nullopt when not present in the explored region.  The target is located
/// with one hash lookup; the BFS runs over the CSR edge list.
[[nodiscard]] std::optional<firing_sequence>
shortest_path_to(const state_space& space, const marking& target);

/// Max token count per place over the explored region (bounds witness).
[[nodiscard]] std::vector<std::int64_t> place_bounds(const state_space& space);

} // namespace fcqss::pn

#endif // FCQSS_PN_REACHABILITY_HPP
