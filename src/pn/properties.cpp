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
    // do (the SCC-local non-ignoring proviso keeps fireability exact).  A
    // caller-requested reduction is therefore upgraded, not forced off.
    reachability_options opts = options;
    if (opts.reduction != reduction_kind::none) {
        opts.reduction = reduction_kind::ltl_x;
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
