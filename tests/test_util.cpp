#include "test_util.hpp"

#include <algorithm>
#include <string>

#include "base/error.hpp"

namespace fcqss::testutil {

namespace {

// Grows a balanced processing chain below `from`; every path terminates in a
// sink transition, so the net stays schedulable by construction.
class growth {
public:
    growth(pn::net_builder& builder, prng& rng, const random_net_options& options)
        : builder_(builder), rng_(rng), options_(options)
    {
    }

    void grow(pn::transition_id from, int depth_left)
    {
        if (depth_left <= 0) {
            return; // `from` stays a sink
        }
        const std::uint64_t roll = rng_.below(100);
        if (roll < static_cast<std::uint64_t>(options_.choice_percent)) {
            grow_choice(from, depth_left);
        } else if (options_.allow_joins && roll < static_cast<std::uint64_t>(
                                                      options_.choice_percent + 20)) {
            grow_fork_join(from, depth_left);
        } else {
            grow_plain(from, depth_left);
        }
    }

private:
    std::string fresh(const char* prefix)
    {
        return std::string(prefix) + std::to_string(serial_++);
    }

    std::int64_t weight() { return rng_.range(1, options_.max_weight); }

    void grow_plain(pn::transition_id from, int depth_left)
    {
        const auto p = builder_.add_place(fresh("p"));
        const auto u = builder_.add_transition(fresh("t"));
        // Any (produce, consume) pair stays balanced: the T-invariant scales.
        builder_.add_arc(from, p, weight());
        builder_.add_arc(p, u, weight());
        grow(u, depth_left - 1);
    }

    void grow_choice(pn::transition_id from, int depth_left)
    {
        const auto p = builder_.add_place(fresh("c"));
        const std::int64_t w = weight();
        builder_.add_arc(from, p, w);
        const int alternatives = static_cast<int>(rng_.range(2, 3));
        for (int i = 0; i < alternatives; ++i) {
            const auto alt = builder_.add_transition(fresh("t"));
            builder_.add_arc(p, alt, w); // equal conflict: same weight
            grow(alt, depth_left - 1);
        }
    }

    void grow_fork_join(pn::transition_id from, int depth_left)
    {
        const auto pa = builder_.add_place(fresh("p"));
        const auto pb = builder_.add_place(fresh("p"));
        const auto u = builder_.add_transition(fresh("t"));
        const std::int64_t wa = weight();
        const std::int64_t wb = weight();
        // Matched weights on both legs keep the join balanced one-to-one.
        builder_.add_arc(from, pa, wa);
        builder_.add_arc(from, pb, wb);
        builder_.add_arc(pa, u, wa);
        builder_.add_arc(pb, u, wb);
        grow(u, depth_left - 1);
    }

    pn::net_builder& builder_;
    prng& rng_;
    random_net_options options_;
    int serial_ = 0;
};

/// "marking (..), edges t<via>-><to> ..." for a difference report.
std::string describe_state(const pn::reachability_node& node)
{
    std::string text = "marking ";
    text += node.state.to_string();
    text += ", edges";
    for (const auto& [via, to] : node.successors) {
        text += " t";
        text += std::to_string(via.value());
        text += "->";
        text += std::to_string(to);
    }
    return text;
}

} // namespace

pn::petri_net random_free_choice_net(std::uint64_t seed,
                                     const random_net_options& options)
{
    pn::net_builder builder("random_" + std::to_string(seed));
    prng rng(seed);
    growth g(builder, rng, options);
    for (int s = 0; s < options.sources; ++s) {
        const auto source = builder.add_transition("src" + std::to_string(s));
        g.grow(source, options.depth);
    }
    return std::move(builder).build();
}

pn::petri_net counter_net(const std::string& name, std::int64_t root, std::int64_t step,
                          int toggles, int fuse, std::int64_t walk_step,
                          std::int64_t jump)
{
    pn::net_builder b(name);
    const pn::place_id c = b.add_place("c", root);
    for (int i = 0; i < toggles; ++i) {
        const pn::place_id a = b.add_place("a" + std::to_string(i), 1);
        const pn::place_id z = b.add_place("b" + std::to_string(i));
        const pn::transition_id flip = b.add_transition("flip" + std::to_string(i));
        const pn::transition_id flop = b.add_transition("flop" + std::to_string(i));
        b.add_arc(a, flip);
        b.add_arc(flip, z);
        if (step != 0) {
            b.add_arc(flip, c, step);
        }
        b.add_arc(z, flop);
        b.add_arc(flop, a);
    }
    if (fuse > 0) {
        pn::place_id at = b.add_place("f0", 1);
        for (int i = 1; i <= fuse; ++i) {
            const pn::place_id next = b.add_place("f" + std::to_string(i));
            const pn::transition_id walk = b.add_transition("walk" + std::to_string(i));
            b.add_arc(at, walk);
            b.add_arc(walk, next);
            if (walk_step != 0) {
                b.add_arc(walk, c, walk_step);
            }
            at = next;
        }
        const pn::transition_id leap = b.add_transition("jump");
        b.add_arc(at, leap);
        b.add_arc(leap, c, jump);
    }
    return std::move(b).build();
}

std::string difference_from_reference(const pn::state_space& space,
                                      const pn::reachability_graph& reference)
{
    std::string difference;
    if (space.state_count() != reference.size()) {
        difference += "state count ";
        difference += std::to_string(space.state_count());
        difference += ", reference ";
        difference += std::to_string(reference.size());
        return difference;
    }
    if (space.truncated() != reference.truncated) {
        difference += "truncated ";
        difference += space.truncated() ? "yes" : "no";
        difference += ", reference ";
        difference += reference.truncated ? "yes" : "no";
        return difference;
    }
    std::size_t edge_total = 0;
    for (pn::state_id s = 0; s < static_cast<pn::state_id>(space.state_count()); ++s) {
        // State s in the reference's form, so the two compare field by field.
        pn::reachability_node engine{space.marking_of(s), {}};
        for (const pn::state_space_edge& edge : space.successors(s)) {
            engine.successors.emplace_back(edge.via, edge.to);
        }
        const pn::reachability_node& node = reference.nodes[s];
        if (engine.state != node.state || engine.successors != node.successors) {
            difference += "state ";
            difference += std::to_string(s);
            difference += ": ";
            difference += describe_state(engine);
            difference += "; reference ";
            difference += describe_state(node);
            return difference;
        }
        edge_total += engine.successors.size();
    }
    if (space.edge_count() != edge_total) {
        difference += "edge count ";
        difference += std::to_string(space.edge_count());
        difference += ", per-state edges sum to ";
        difference += std::to_string(edge_total);
    }
    return difference;
}

void eager_react(const pn::petri_net& net, pn::marking& m, pn::transition_id source,
                 const std::function<int(pn::place_id)>& choose,
                 const std::function<void(pn::transition_id)>& on_fire, int max_steps)
{
    pn::fire(net, m, source);
    if (on_fire) {
        on_fire(source);
    }

    int steps = 0;
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (pn::place_id p : net.places()) {
            const auto& consumers = net.consumers(p);
            if (consumers.empty()) {
                continue;
            }
            if (consumers.size() > 1) {
                // Choice: while tokens suffice, let the oracle resolve.
                while (m.tokens(p) >= consumers.front().weight) {
                    const int branch = choose(p);
                    if (branch < 0 ||
                        static_cast<std::size_t>(branch) >= consumers.size()) {
                        throw error("eager_react: oracle returned bad branch");
                    }
                    // Alternatives ascending by transition id to match the
                    // cluster order used by codegen.
                    std::vector<pn::transition_weight> sorted = consumers;
                    std::sort(sorted.begin(), sorted.end(),
                              [](const pn::transition_weight& a,
                                 const pn::transition_weight& b) {
                                  return a.transition < b.transition;
                              });
                    pn::fire(net, m, sorted[static_cast<std::size_t>(branch)].transition);
                    if (on_fire) {
                        on_fire(sorted[static_cast<std::size_t>(branch)].transition);
                    }
                    progressed = true;
                    if (++steps > max_steps) {
                        throw error("eager_react: step limit exceeded");
                    }
                }
                continue;
            }
            const pn::transition_id u = consumers.front().transition;
            if (net.inputs(u).empty()) {
                continue; // never auto-fire sources
            }
            while (pn::is_enabled(net, m, u)) {
                pn::fire(net, m, u);
                if (on_fire) {
                    on_fire(u);
                }
                progressed = true;
                if (++steps > max_steps) {
                    throw error("eager_react: step limit exceeded");
                }
            }
        }
    }
}

std::vector<qss::t_allocation>
enumerate_allocations(const std::vector<qss::choice_cluster>& clusters)
{
    std::vector<qss::t_allocation> result;
    std::vector<std::size_t> digit(clusters.size(), 0);
    qss::t_allocation current;
    current.chosen.resize(clusters.size());
    while (true) {
        for (std::size_t i = 0; i < clusters.size(); ++i) {
            current.chosen[i] = clusters[i].alternatives[digit[i]];
        }
        result.push_back(current);
        // Increment from the last cluster; done once the first wraps.
        std::size_t i = clusters.size();
        while (i > 0) {
            --i;
            if (++digit[i] < clusters[i].alternatives.size()) {
                break;
            }
            digit[i] = 0;
            if (i == 0) {
                return result;
            }
        }
        if (clusters.empty()) {
            return result;
        }
    }
}

qss::qss_result brute_force_schedule(const pn::petri_net& net)
{
    qss::qss_result result;
    result.clusters = qss::choice_clusters(net);
    const std::vector<qss::t_allocation> allocations =
        enumerate_allocations(result.clusters);
    result.allocations_enumerated = allocations.size();
    for (const qss::t_allocation& allocation : allocations) {
        qss::t_reduction reduction = qss::reduce(net, result.clusters, allocation);
        const bool seen = std::any_of(
            result.entries.begin(), result.entries.end(),
            [&](const qss::schedule_entry& e) { return e.reduction.same_subnet(reduction); });
        if (!seen) {
            result.entries.push_back({std::move(reduction), {}});
        }
    }
    result.schedulable = true;
    for (qss::schedule_entry& entry : result.entries) {
        entry.analysis = qss::schedule_reduction(net, result.clusters, entry.reduction);
        if (entry.analysis.ok()) {
            continue;
        }
        if (result.schedulable) {
            result.failure = entry.analysis.failure;
        } else {
            result.diagnosis += "; ";
        }
        result.schedulable = false;
        result.diagnosis += "T-reduction for allocation " +
                            qss::to_string(net, result.clusters, entry.reduction.allocation) +
                            " is " + qss::to_string(entry.analysis.failure);
        if (!entry.analysis.offending.empty()) {
            std::string names;
            for (pn::transition_id t : entry.analysis.offending) {
                names += (names.empty() ? "" : ", ") + net.transition_name(t);
            }
            result.diagnosis += " (" + names + ")";
        }
    }
    return result;
}

} // namespace fcqss::testutil
