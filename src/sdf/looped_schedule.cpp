#include "sdf/looped_schedule.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "graph/digraph.hpp"
#include "graph/traversal.hpp"
#include "sdf/repetition.hpp"

namespace fcqss::sdf {

namespace {

std::size_t appearance_count_of(const std::vector<schedule_node>& nodes)
{
    std::size_t count = 0;
    for (const schedule_node& node : nodes) {
        count += node.body.empty() ? 1 : appearance_count_of(node.body);
    }
    return count;
}

void flatten_into(const std::vector<schedule_node>& nodes, std::vector<actor_id>& out)
{
    for (const schedule_node& node : nodes) {
        for (std::int64_t i = 0; i < node.count; ++i) {
            if (node.body.empty()) {
                out.push_back(node.actor);
            } else {
                flatten_into(node.body, out);
            }
        }
    }
}

bool nodes_equal(const schedule_node& a, const schedule_node& b)
{
    if (a.count != b.count || a.body.size() != b.body.size()) {
        return false;
    }
    if (a.body.empty()) {
        return b.body.empty() && a.actor == b.actor;
    }
    for (std::size_t i = 0; i < a.body.size(); ++i) {
        if (!nodes_equal(a.body[i], b.body[i])) {
            return false;
        }
    }
    return true;
}

// One compression pass: merge maximal runs of equal adjacent blocks of
// period 1..max_period into loops.  Returns whether anything changed.
bool compress_pass(std::vector<schedule_node>& nodes)
{
    for (std::size_t period = 1; period <= nodes.size() / 2; ++period) {
        for (std::size_t start = 0; start + 2 * period <= nodes.size(); ++start) {
            // Count repetitions of the block [start, start+period).
            std::size_t repeats = 1;
            while (start + (repeats + 1) * period <= nodes.size()) {
                bool same = true;
                for (std::size_t k = 0; k < period && same; ++k) {
                    same = nodes_equal(nodes[start + k],
                                       nodes[start + repeats * period + k]);
                }
                if (!same) {
                    break;
                }
                ++repeats;
            }
            if (repeats < 2) {
                continue;
            }
            schedule_node loop;
            loop.count = static_cast<std::int64_t>(repeats);
            if (period == 1 && nodes[start].body.empty()) {
                // Collapse runs of a single actor without nesting.
                loop.actor = nodes[start].actor;
                loop.count *= nodes[start].count;
            } else {
                loop.body.assign(
                    nodes.begin() + static_cast<std::ptrdiff_t>(start),
                    nodes.begin() + static_cast<std::ptrdiff_t>(start + period));
            }
            nodes.erase(nodes.begin() + static_cast<std::ptrdiff_t>(start),
                        nodes.begin() +
                            static_cast<std::ptrdiff_t>(start + repeats * period));
            nodes.insert(nodes.begin() + static_cast<std::ptrdiff_t>(start),
                         std::move(loop));
            return true;
        }
    }
    return false;
}

} // namespace

std::size_t looped_schedule::appearance_count() const
{
    return appearance_count_of(nodes);
}

looped_schedule compress(const std::vector<actor_id>& firing_order)
{
    looped_schedule schedule;
    for (actor_id a : firing_order) {
        schedule_node node;
        node.actor = a;
        schedule.nodes.push_back(node);
    }
    while (compress_pass(schedule.nodes)) {
    }
    return schedule;
}

std::vector<actor_id> flatten(const looped_schedule& schedule)
{
    std::vector<actor_id> out;
    flatten_into(schedule.nodes, out);
    return out;
}

looped_schedule single_appearance_schedule(const sdf_graph& graph)
{
    looped_schedule schedule;
    const repetition_result repetitions = repetition_vector(graph);
    if (!repetitions.consistent()) {
        return schedule;
    }

    // Topological order over the actor dependency graph, ignoring channels
    // with enough delay to cover the consumer's whole burst.
    graph::digraph deps(graph.actor_count());
    for (const channel& ch : graph.channels()) {
        if (ch.producer == ch.consumer) {
            continue;
        }
        const std::int64_t needed =
            repetitions.counts[ch.consumer] * ch.consumption;
        if (ch.initial_tokens >= needed) {
            continue; // the delay alone feeds one full period
        }
        deps.add_edge(ch.producer, ch.consumer);
    }
    const auto order = graph::topological_order(deps);
    if (!order.has_value()) {
        return schedule; // cyclic without sufficient delays: no SAS this way
    }
    for (std::size_t v : *order) {
        schedule_node node;
        node.actor = v;
        node.count = repetitions.counts[v];
        schedule.nodes.push_back(node);
    }
    if (!is_admissible(graph, schedule)) {
        schedule.nodes.clear();
    }
    return schedule;
}

bool is_admissible(const sdf_graph& graph, const looped_schedule& schedule)
{
    std::vector<std::int64_t> tokens(graph.channel_count());
    for (channel_id c = 0; c < graph.channel_count(); ++c) {
        tokens[c] = graph.channel_at(c).initial_tokens;
    }
    for (actor_id a : flatten(schedule)) {
        for (channel_id c = 0; c < graph.channel_count(); ++c) {
            const channel& ch = graph.channel_at(c);
            if (ch.consumer == a) {
                tokens[c] -= ch.consumption;
                if (tokens[c] < 0) {
                    return false;
                }
            }
        }
        for (channel_id c = 0; c < graph.channel_count(); ++c) {
            const channel& ch = graph.channel_at(c);
            if (ch.producer == a) {
                tokens[c] += ch.production;
            }
        }
    }
    for (channel_id c = 0; c < graph.channel_count(); ++c) {
        if (tokens[c] != graph.channel_at(c).initial_tokens) {
            return false;
        }
    }
    return true;
}

std::vector<std::int64_t> looped_buffer_bounds(const sdf_graph& graph,
                                               const looped_schedule& schedule)
{
    if (!is_admissible(graph, schedule)) {
        throw domain_error("looped_buffer_bounds: schedule is not admissible");
    }
    std::vector<std::int64_t> tokens(graph.channel_count());
    std::vector<std::int64_t> peaks(graph.channel_count());
    for (channel_id c = 0; c < graph.channel_count(); ++c) {
        tokens[c] = graph.channel_at(c).initial_tokens;
        peaks[c] = tokens[c];
    }
    for (actor_id a : flatten(schedule)) {
        for (channel_id c = 0; c < graph.channel_count(); ++c) {
            const channel& ch = graph.channel_at(c);
            if (ch.consumer == a) {
                tokens[c] -= ch.consumption;
            }
        }
        for (channel_id c = 0; c < graph.channel_count(); ++c) {
            const channel& ch = graph.channel_at(c);
            if (ch.producer == a) {
                tokens[c] += ch.production;
                peaks[c] = std::max(peaks[c], tokens[c]);
            }
        }
    }
    return peaks;
}

namespace {

void render(const sdf_graph& graph, const std::vector<schedule_node>& nodes,
            std::string& out)
{
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (i != 0) {
            out += ' ';
        }
        const schedule_node& node = nodes[i];
        if (node.body.empty()) {
            if (node.count == 1) {
                out += graph.actor_name(node.actor);
            } else {
                out += '(';
                out += std::to_string(node.count);
                out += ' ';
                out += graph.actor_name(node.actor);
                out += ')';
            }
        } else {
            out += '(';
            out += std::to_string(node.count);
            out += ' ';
            render(graph, node.body, out);
            out += ")";
        }
    }
}

} // namespace

std::string to_string(const sdf_graph& graph, const looped_schedule& schedule)
{
    std::string out;
    render(graph, schedule.nodes, out);
    return out;
}

} // namespace fcqss::sdf
