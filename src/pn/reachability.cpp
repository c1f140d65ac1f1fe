#include "pn/reachability.hpp"

#include <deque>

#include "base/error.hpp"
#include "pn/parallel_explore.hpp"
#include "pn/state_space.hpp"

namespace fcqss::pn {

state_space explore_space(const petri_net& net, const reachability_options& options)
{
    return options.threads == 1 ? explore_state_space(net, options)
                                : explore_parallel(net, options);
}

reachability_graph explore_reference(const petri_net& net,
                                     const reachability_options& options)
{
    reachability_graph graph;
    std::unordered_map<marking, std::size_t, marking_hash> index_of;

    const marking m0 = initial_marking(net);
    graph.nodes.push_back({m0, {}});
    index_of.emplace(m0, 0);

    std::deque<std::size_t> frontier{0};
    while (!frontier.empty()) {
        const std::size_t node_index = frontier.front();
        frontier.pop_front();
        // Copy the marking: the nodes vector may reallocate while we append.
        const marking current = graph.nodes[node_index].state;
        for (transition_id t : net.transitions()) {
            if (!is_enabled(net, current, t)) {
                continue;
            }
            marking next = current;
            fire(net, next, t);

            bool over_cap = false;
            for (std::int64_t tokens : next.vector()) {
                if (tokens > options.max_tokens_per_place) {
                    over_cap = true;
                    break;
                }
            }
            if (over_cap) {
                graph.truncated = true;
                continue;
            }

            const auto [it, inserted] = index_of.emplace(next, graph.nodes.size());
            if (inserted) {
                if (graph.nodes.size() >= options.max_markings) {
                    graph.truncated = true;
                    index_of.erase(it);
                    continue;
                }
                graph.nodes.push_back({std::move(next), {}});
                frontier.push_back(it->second);
            }
            graph.nodes[node_index].successors.emplace_back(t, it->second);
        }
    }
    return graph;
}

std::optional<marking> find_deadlock(const petri_net& net,
                                     const reachability_graph& graph)
{
    for (const reachability_node& node : graph.nodes) {
        if (is_deadlocked(net, node.state)) {
            return node.state;
        }
    }
    return std::nullopt;
}

bool is_reachable(const reachability_graph& graph, const marking& target)
{
    for (const reachability_node& node : graph.nodes) {
        if (node.state == target) {
            return true;
        }
    }
    return false;
}

std::optional<firing_sequence> shortest_path_to(const reachability_graph& graph,
                                                const marking& target)
{
    if (graph.nodes.empty()) {
        return std::nullopt;
    }
    if (graph.nodes.front().state == target) {
        return firing_sequence{};
    }
    // BFS over the already-built graph, recording the incoming edge.
    constexpr std::size_t unseen = static_cast<std::size_t>(-1);
    std::vector<std::size_t> parent(graph.nodes.size(), unseen);
    std::vector<transition_id> via(graph.nodes.size());
    std::deque<std::size_t> frontier{0};
    parent[0] = 0;
    while (!frontier.empty()) {
        const std::size_t v = frontier.front();
        frontier.pop_front();
        for (const auto& [t, w] : graph.nodes[v].successors) {
            if (parent[w] != unseen) {
                continue;
            }
            parent[w] = v;
            via[w] = t;
            if (graph.nodes[w].state == target) {
                firing_sequence path;
                for (std::size_t at = w; at != 0; at = parent[at]) {
                    path.push_back(via[at]);
                }
                return firing_sequence(path.rbegin(), path.rend());
            }
            frontier.push_back(w);
        }
    }
    return std::nullopt;
}

std::vector<std::int64_t> place_bounds(const reachability_graph& graph)
{
    if (graph.nodes.empty()) {
        return {};
    }
    std::vector<std::int64_t> bounds(graph.nodes.front().state.size(), 0);
    for (const reachability_node& node : graph.nodes) {
        const auto& tokens = node.state.vector();
        for (std::size_t i = 0; i < tokens.size(); ++i) {
            if (tokens[i] > bounds[i]) {
                bounds[i] = tokens[i];
            }
        }
    }
    return bounds;
}

namespace {

/// True when s has no recorded edges and genuinely enables nothing.  Zero
/// recorded edges alone is inconclusive: a budget (over-cap, max_states) or
/// a stubborn reduction whose successors were all dropped can leave a live
/// state edgeless, so its tokens (decoded into `buffer`, length |P|) are
/// re-checked against every transition.
bool is_dead_state(const petri_net& net, const state_space& space, state_id s,
                   std::vector<std::int64_t>& buffer)
{
    if (!space.successors(s).empty()) {
        return false;
    }
    space.load(s, buffer.data());
    for (transition_id t : net.transitions()) {
        if (detail::enabled_in(net, buffer.data(), t)) {
            return false;
        }
    }
    return true;
}

} // namespace

std::optional<state_id> find_deadlock(const petri_net& net, const state_space& space)
{
    std::vector<std::int64_t> buffer(space.store().width());
    for (state_id s = 0; s < static_cast<state_id>(space.state_count()); ++s) {
        if (is_dead_state(net, space, s, buffer)) {
            return s;
        }
    }
    return std::nullopt;
}

std::vector<state_id> deadlock_states(const petri_net& net, const state_space& space)
{
    std::vector<state_id> dead;
    std::vector<std::int64_t> buffer(space.store().width());
    for (state_id s = 0; s < static_cast<state_id>(space.state_count()); ++s) {
        if (is_dead_state(net, space, s, buffer)) {
            dead.push_back(s);
        }
    }
    return dead;
}

bool is_reachable(const state_space& space, const marking& target)
{
    const std::vector<std::int64_t>& tokens = target.vector();
    if (tokens.size() != space.store().width()) {
        return false;
    }
    return space.store().find(tokens.data(), marking_store::hash_tokens(
                                                 tokens.data(), tokens.size())) !=
           invalid_state;
}

std::optional<firing_sequence> shortest_path_to(const state_space& space,
                                                const marking& target)
{
    const std::vector<std::int64_t>& tokens = target.vector();
    if (space.state_count() == 0 || tokens.size() != space.store().width()) {
        return std::nullopt;
    }
    const state_id goal = space.store().find(
        tokens.data(), marking_store::hash_tokens(tokens.data(), tokens.size()));
    if (goal == invalid_state) {
        return std::nullopt;
    }
    if (goal == 0) {
        return firing_sequence{};
    }
    // BFS over the CSR edge list, recording the incoming edge.
    std::vector<state_id> parent(space.state_count(), invalid_state);
    std::vector<transition_id> via(space.state_count());
    std::deque<state_id> frontier{0};
    parent[0] = 0;
    while (!frontier.empty()) {
        const state_id v = frontier.front();
        frontier.pop_front();
        for (const state_space_edge& edge : space.successors(v)) {
            if (parent[edge.to] != invalid_state) {
                continue;
            }
            parent[edge.to] = v;
            via[edge.to] = edge.via;
            if (edge.to == goal) {
                firing_sequence path;
                for (state_id at = goal; at != 0; at = parent[at]) {
                    path.push_back(via[at]);
                }
                return firing_sequence(path.rbegin(), path.rend());
            }
            frontier.push_back(edge.to);
        }
    }
    return std::nullopt;
}

std::vector<std::int64_t> place_bounds(const state_space& space)
{
    std::vector<std::int64_t> bounds(space.store().width(), 0);
    std::vector<std::int64_t> tokens(space.store().width());
    for (state_id s = 0; s < static_cast<state_id>(space.state_count()); ++s) {
        space.load(s, tokens.data());
        for (std::size_t i = 0; i < tokens.size(); ++i) {
            if (tokens[i] > bounds[i]) {
                bounds[i] = tokens[i];
            }
        }
    }
    return bounds;
}

} // namespace fcqss::pn
