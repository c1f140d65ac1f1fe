#include "pn/properties.hpp"

#include "graph/digraph.hpp"
#include "graph/scc.hpp"
#include "pn/coverability.hpp"

namespace fcqss::pn {

std::string to_string(verdict v)
{
    switch (v) {
    case verdict::yes: return "yes";
    case verdict::no: return "no";
    case verdict::unknown: return "unknown";
    }
    return "unknown";
}

verdict check_k_bounded(const petri_net& net, std::int64_t k)
{
    const coverability_tree tree = build_coverability_tree(net);
    if (tree.truncated) {
        return verdict::unknown;
    }
    return is_k_bounded(tree, k) ? verdict::yes : verdict::no;
}

verdict check_safe(const petri_net& net)
{
    return check_k_bounded(net, 1);
}

verdict check_k_bounded_explicit(const petri_net& net, std::int64_t k,
                                 const reachability_options& options)
{
    // "Some place exceeds k" is a stutter-invariant reachability query, so
    // a stubborn reduction must observe the queried places — but only the
    // *growable* ones (some transition has a positive net delta there): a
    // place no firing grows never exceeds its initial count, which the
    // root-marking scan below settles directly.  Under reduction each
    // growable place is then queried in its own exploration with
    // observed_places = {that place} — the weakest exact visibility set —
    // instead of observing all growable places at once, which makes every
    // transition touching any of them visible and can degenerate the ltl_x
    // reduction to (nearly) the full graph.  Each per-place run preserves
    // reachability of "p exceeds k" exactly, so an over-k bound is a
    // definite no and a clean (untruncated) sweep is a definite yes.
    for (const std::int64_t count : net.initial_marking_vector()) {
        if (count > k) {
            return verdict::no; // the root marking itself is the witness
        }
    }
    if (options.reduction == reduction_kind::none) {
        const state_space space = explore_space(net, options);
        for (const std::int64_t bound : place_bounds(space)) {
            if (bound > k) {
                return verdict::no; // a witness marking is definite either way
            }
        }
        return space.truncated() ? verdict::unknown : verdict::yes;
    }
    bool truncated = false;
    for (const place_id p : growable_places(net)) {
        reachability_options opts = options;
        opts.reduction = reduction_kind::ltl_x;
        opts.observed_places = {p};
        const state_space space = explore_space(net, opts);
        if (place_bounds(space)[p.index()] > k) {
            return verdict::no;
        }
        truncated |= space.truncated();
    }
    return truncated ? verdict::unknown : verdict::yes;
}

verdict check_deadlock_free(const petri_net& net, const reachability_options& options)
{
    // Served straight off the compact state space: no marking-object graph
    // is ever materialized.
    const state_space space = explore_space(net, options);
    if (find_deadlock(net, space).has_value()) {
        return verdict::no;
    }
    return space.truncated() ? verdict::unknown : verdict::yes;
}

verdict check_live(const petri_net& net, const reachability_options& options)
{
    // Liveness quantifies over every transition from every reachable
    // marking, which deadlock stubborn sets do not preserve — but ltl_x ones
    // do (the SCC-local non-ignoring proviso keeps fireability exact; no
    // place needs observing).  A caller-requested reduction is therefore
    // upgraded, not forced off.
    reachability_options opts = options;
    if (opts.reduction != reduction_kind::none) {
        opts.reduction = reduction_kind::ltl_x;
        opts.observed_places.clear();
    }
    const state_space space = explore_space(net, opts);
    if (space.truncated()) {
        return verdict::unknown;
    }
    const std::size_t states = space.state_count();
    if (states == 0 || net.transition_count() == 0) {
        return verdict::no;
    }

    // Liveness on a finite reachability graph: t is live iff every marking
    // can reach a marking that enables t.  Equivalently, in the condensation
    // of the state graph every *bottom* SCC must contain an edge labelled t.
    graph::digraph state_graph(states);
    for (state_id v = 0; v < static_cast<state_id>(states); ++v) {
        for (const state_space_edge& edge : space.successors(v)) {
            state_graph.add_edge(v, edge.to);
        }
    }
    const graph::scc_result sccs = graph::strongly_connected_components(state_graph);

    // A bottom SCC has no edge leaving it.
    std::vector<bool> is_bottom(sccs.component_count(), true);
    for (state_id v = 0; v < static_cast<state_id>(states); ++v) {
        for (const state_space_edge& edge : space.successors(v)) {
            if (sccs.component[v] != sccs.component[edge.to]) {
                is_bottom[sccs.component[v]] = false;
            }
        }
    }

    for (std::size_t c = 0; c < sccs.component_count(); ++c) {
        if (!is_bottom[c]) {
            continue;
        }
        std::vector<bool> fires_in_scc(net.transition_count(), false);
        for (std::size_t v : sccs.members[c]) {
            for (const state_space_edge& edge :
                 space.successors(static_cast<state_id>(v))) {
                if (sccs.component[edge.to] == c) {
                    fires_in_scc[edge.via.index()] = true;
                }
            }
        }
        for (bool fired : fires_in_scc) {
            if (!fired) {
                return verdict::no;
            }
        }
    }
    return verdict::yes;
}

} // namespace fcqss::pn
