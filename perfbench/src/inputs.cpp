#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <numeric>
#include <stdexcept>

#include "pn/builder.hpp"
#include "pn/net_class.hpp"
#include "pn/reachability.hpp"
#include "pnio/writer.hpp"
#include "qss/conflict_clusters.hpp"
#include "qss/scheduler.hpp"
#include "qss/t_allocation.hpp"

namespace perfbench {

namespace fp = fcqss::pipeline;
namespace pn = fcqss::pn;

namespace {

/// Nets scanned before a seed is declared unable to fill its profile.
constexpr std::size_t max_scan = 200000;

fp::generator_options synth_options()
{
    fp::generator_options options;
    options.family = fp::net_family::free_choice;
    options.token_load = 2;
    return options;
}

fp::generator_options explore_options(int sources, int depth)
{
    fp::generator_options options;
    options.family = fp::net_family::marked_graph;
    options.sources = sources;
    options.depth = depth;
    options.source_credit = 1;
    return options;
}

/// Copies the places, transitions and arcs of one component into a net.
pn::petri_net component_net(const pn::petri_net& net, const std::vector<bool>& in_place,
                            const std::vector<bool>& in_transition)
{
    pn::net_builder builder("component");
    std::vector<pn::place_id> place_map(net.place_count());
    for (const pn::place_id p : net.places()) {
        if (in_place[p.index()]) {
            place_map[p.index()] = builder.add_place(net.place_name(p), net.initial_tokens(p));
        }
    }
    for (const pn::transition_id t : net.transitions()) {
        if (!in_transition[t.index()]) {
            continue;
        }
        const pn::transition_id u = builder.add_transition(net.transition_name(t));
        for (const pn::place_weight& in : net.inputs(t)) {
            builder.add_arc(place_map[in.place.index()], u, in.weight);
        }
        for (const pn::place_weight& out : net.outputs(t)) {
            builder.add_arc(u, place_map[out.place.index()], out.weight);
        }
    }
    return std::move(builder).build();
}

std::vector<double> convolve(const std::vector<double>& a, const std::vector<double>& b)
{
    std::vector<double> c(a.size() + b.size() - 1, 0.0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        for (std::size_t j = 0; j < b.size(); ++j) {
            c[i + j] += a[i] * b[j];
        }
    }
    return c;
}

} // namespace

std::int64_t cost_class(const pn::petri_net& net)
{
    if (!pn::is_free_choice(net) || !pn::is_equal_conflict_free_choice(net)) {
        return -1;
    }
    const std::size_t count = fcqss::qss::allocation_count(fcqss::qss::choice_clusters(net));
    if (count > fcqss::qss::scheduler_options{}.max_allocations) {
        return -2;
    }
    // Scheduling work and memory grow with allocations x net size.  Heavy
    // nets, which set the batch's wall time and peak memory, must match the
    // allocation count exactly and the size within an eighth of an octave;
    // the rest match the quarter-octave of allocations x size.
    const auto size = static_cast<double>(net.place_count() + net.transition_count());
    if (count >= 4096) {
        return (static_cast<std::int64_t>(count) << 8) +
               static_cast<std::int64_t>(8 * std::log2(size));
    }
    return static_cast<std::int64_t>(4 * std::log2(static_cast<double>(count) * size));
}

std::vector<named_text> synth_inputs(std::uint64_t seed, std::size_t count)
{
    // The cost-class sequence of generator seed 7's first `count` nets; each
    // position is filled with the next unused net of the same class from the
    // seed's stream, so the batch keeps both the cost profile and where in
    // the batch the expensive nets sit.
    std::vector<std::int64_t> pattern;
    {
        fp::net_generator reference(7, synth_options());
        for (std::size_t i = 0; i < count; ++i) {
            pattern.push_back(cost_class(reference.next()));
        }
    }
    // Positions still open per class; a scanned net is kept only while its
    // class has an open position nothing queued will fill.
    std::map<std::int64_t, std::size_t> open;
    for (const std::int64_t klass : pattern) {
        ++open[klass];
    }
    std::map<std::int64_t, std::deque<pn::petri_net>> unused;
    std::vector<named_text> out;
    out.reserve(count);
    fp::net_generator generator(seed, synth_options());
    std::size_t scanned = 0;
    for (const std::int64_t klass : pattern) {
        std::deque<pn::petri_net>& queue = unused[klass];
        while (queue.empty()) {
            if (++scanned > max_scan) {
                throw std::runtime_error("synth_fc: seed cannot fill the cost profile");
            }
            pn::petri_net net = generator.next();
            const std::int64_t c = cost_class(net);
            if (unused[c].size() < open[c]) {
                unused[c].push_back(std::move(net));
            }
        }
        const pn::petri_net& net = queue.front();
        out.push_back({net.name(), fcqss::pnio::write_net(net), fp::net_family::free_choice});
        queue.pop_front();
        --open[klass];
    }
    return out;
}

std::vector<named_text> serve_pool(std::uint64_t seed, std::size_t count)
{
    static constexpr fp::net_family families[] = {
        fp::net_family::marked_graph, fp::net_family::layered_pipeline,
        fp::net_family::bursty_multirate, fp::net_family::free_choice,
        fp::net_family::client_server};
    std::vector<fp::net_generator> generators;
    for (const fp::net_family family : families) {
        fp::generator_options options;
        options.family = family;
        options.depth = 4;
        generators.emplace_back(seed, options);
    }
    std::vector<named_text> out;
    out.reserve(count);
    for (std::size_t scanned = 0; out.size() < count; ++scanned) {
        if (scanned == max_scan) {
            throw std::runtime_error("serve_mix: seed cannot fill the pool");
        }
        fp::net_generator& generator = generators[scanned % std::size(families)];
        pn::petri_net net = generator.next();
        // Outside the free-choice class the scheduler never runs; those nets
        // stay in the mix as the rejection path.
        const bool in_class =
            pn::is_free_choice(net) && pn::is_equal_conflict_free_choice(net);
        if (!in_class ||
            fcqss::qss::allocation_count(fcqss::qss::choice_clusters(net)) <= 256) {
            out.push_back({net.name(), fcqss::pnio::write_net(net), generator.options().family});
        }
    }
    return out;
}

product_size predict_space(const pn::petri_net& net, std::size_t component_cap)
{
    // Union-find over places [0, P) and transitions [P, P + T).
    const std::size_t places = net.place_count();
    std::vector<std::size_t> parent(places + net.transition_count());
    std::iota(parent.begin(), parent.end(), 0);
    const auto find = [&](std::size_t x) {
        while (parent[x] != x) {
            x = parent[x] = parent[parent[x]];
        }
        return x;
    };
    for (const pn::transition_id t : net.transitions()) {
        const std::size_t node = places + t.index();
        for (const pn::place_weight& in : net.inputs(t)) {
            parent[find(in.place.index())] = find(node);
        }
        for (const pn::place_weight& out : net.outputs(t)) {
            parent[find(out.place.index())] = find(node);
        }
    }
    std::map<std::size_t, std::pair<std::vector<bool>, std::vector<bool>>> components;
    for (std::size_t node = 0; node < parent.size(); ++node) {
        auto& [in_place, in_transition] = components[find(node)];
        in_place.resize(places);
        in_transition.resize(net.transition_count());
        if (node < places) {
            in_place[node] = true;
        } else {
            in_transition[node - places] = true;
        }
    }
    product_size size{{1.0}, {0.0}, false};
    pn::reachability_options options;
    options.max_markings = component_cap;
    for (const auto& [root, members] : components) {
        const pn::state_space space =
            pn::explore_space(component_net(net, members.first, members.second), options);
        if (space.truncated()) {
            size.too_big = true;
            return size;
        }
        // States are numbered in BFS order, so one pass assigns depths.
        std::vector<std::size_t> depth(space.state_count(), 0);
        std::vector<double> levels;
        std::vector<double> level_edges;
        for (pn::state_id from = 0; from < space.state_count(); ++from) {
            if (depth[from] + 1 > levels.size()) {
                levels.resize(depth[from] + 1, 0.0);
                level_edges.resize(depth[from] + 1, 0.0);
            }
            levels[depth[from]] += 1;
            level_edges[depth[from]] += static_cast<double>(space.successors(from).size());
            for (const pn::state_space_edge& edge : space.successors(from)) {
                if (edge.to > from && depth[edge.to] == 0) {
                    depth[edge.to] = depth[from] + 1;
                }
            }
        }
        // (S, E) x (s, e) = (S s, E s + S e), level by level (convolution).
        std::vector<double> edges_by_level = convolve(size.level_edges, levels);
        const std::vector<double> more = convolve(size.levels, level_edges);
        for (std::size_t d = 0; d < more.size(); ++d) {
            edges_by_level[d] += more[d];
        }
        size.levels = convolve(size.levels, levels);
        size.level_edges = std::move(edges_by_level);
    }
    return size;
}

double product_size::states() const
{
    return std::accumulate(levels.begin(), levels.end(), 0.0);
}

double product_size::edges() const
{
    return std::accumulate(level_edges.begin(), level_edges.end(), 0.0);
}

double product_size::flood(double budget, std::size_t back) const
{
    double cumulative = 0;
    for (std::size_t d = 0; d < levels.size(); ++d) {
        cumulative += levels[d];
        if (cumulative >= budget) {
            return d >= back ? level_edges[d - back] : 0;
        }
    }
    return 0;
}

namespace {

/// The first net of generator `seed` whose place count is within `place_tolerance`
/// of the first net of generator seed 3 and whose predicted size `accept` takes
/// (given the reference net's predicted size).
template <typename Accept>
explore_input first_accepted(std::uint64_t seed, const fp::generator_options& options,
                             double place_tolerance, Accept&& accept)
{
    fp::net_generator reference_generator(3, options);
    const pn::petri_net reference = reference_generator.next();
    const product_size reference_size = predict_space(reference);
    const auto reference_places = static_cast<double>(reference.place_count());
    fp::net_generator generator(seed, options);
    for (std::size_t scanned = 0; scanned < max_scan / 20; ++scanned) {
        pn::petri_net net = generator.next();
        const double place_ratio = static_cast<double>(net.place_count()) / reference_places;
        if (std::abs(place_ratio - 1.0) > place_tolerance) {
            continue;
        }
        const product_size size = predict_space(net);
        if (accept(size, reference_size)) {
            std::string text = fcqss::pnio::write_net(net);
            return {std::move(net), std::move(text), size};
        }
    }
    throw std::runtime_error("explore: seed has no net in the target window");
}

} // namespace

explore_input explore_full_input(std::uint64_t seed, bool smoke)
{
    const fp::generator_options options =
        smoke ? explore_options(4, 4) : explore_options(6, 6);
    return first_accepted(seed, options, 0.04,
                          [](const product_size& size, const product_size& reference) {
                              const double ratio = size.states() / reference.states();
                              return !size.too_big && ratio >= 0.97 && ratio <= 1.03;
                          });
}

explore_input explore_budget_input(std::uint64_t seed, bool smoke)
{
    const fp::generator_options options =
        smoke ? explore_options(4, 8) : explore_options(8, 12);
    const double budget = smoke ? 20000 : 300000;
    return first_accepted(seed, options, 0.02,
                          [budget](const product_size& size, const product_size& reference) {
                              const auto near = [&](std::size_t back) {
                                  const double ratio = size.flood(budget, back) /
                                                       reference.flood(budget, back);
                                  return ratio >= 0.9 && ratio <= 1.1;
                              };
                              return !size.too_big && near(0) && near(1);
                          });
}

} // namespace perfbench
