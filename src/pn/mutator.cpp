#include "pn/mutator.hpp"

#include <algorithm>
#include <utility>

#include "base/prng.hpp"
#include "pn/builder.hpp"

namespace fcqss::pn {

const char* to_string(mutation_kind kind)
{
    switch (kind) {
    case mutation_kind::add_arc:
        return "add_arc";
    case mutation_kind::remove_arc:
        return "remove_arc";
    case mutation_kind::redirect_arc:
        return "redirect_arc";
    case mutation_kind::merge_places:
        return "merge_places";
    case mutation_kind::split_place:
        return "split_place";
    case mutation_kind::perturb_weight:
        return "perturb_weight";
    case mutation_kind::perturb_marking:
        return "perturb_marking";
    case mutation_kind::drop_transition:
        return "drop_transition";
    case mutation_kind::duplicate_transition:
        return "duplicate_transition";
    }
    return "?";
}

namespace {

/// Perturbed and new arc weights land in [1, max_weight].
constexpr std::int64_t max_weight = 4;
/// Perturbed initial markings land in [0, max_tokens].
constexpr std::int64_t max_tokens = 3;

/// Mutable intermediate form: names, tokens, and a flat deduplicated arc
/// list.  Mutations edit the sketch; the finished net is rebuilt through
/// net_builder, so every mutant passes the same validation as any other
/// construction path.
struct sketch_arc {
    bool place_to_transition = true;
    std::uint32_t place = 0;
    std::uint32_t transition = 0;
    std::int64_t weight = 1;
};

struct net_sketch {
    std::string name;
    std::vector<std::string> place_names;
    std::vector<std::int64_t> tokens;
    std::vector<std::string> transition_names;
    std::vector<sketch_arc> arcs;
    int serial = 0; ///< suffix source for fresh node names

    [[nodiscard]] std::size_t find_arc(bool place_to_transition, std::uint32_t place,
                                       std::uint32_t transition) const
    {
        for (std::size_t i = 0; i < arcs.size(); ++i) {
            if (arcs[i].place_to_transition == place_to_transition &&
                arcs[i].place == place && arcs[i].transition == transition) {
                return i;
            }
        }
        return arcs.size();
    }

    [[nodiscard]] bool has_place(const std::string& name) const
    {
        return std::find(place_names.begin(), place_names.end(), name) !=
               place_names.end();
    }

    [[nodiscard]] bool has_transition(const std::string& name) const
    {
        return std::find(transition_names.begin(), transition_names.end(), name) !=
               transition_names.end();
    }

    /// `base` + "_m<serial>", bumping the serial past any collision with a
    /// node already in the sketch (possible when a mutant is mutated again).
    [[nodiscard]] std::string fresh_name(const std::string& base, bool place)
    {
        for (;;) {
            std::string candidate = base + "_m" + std::to_string(serial++);
            if (place ? !has_place(candidate) : !has_transition(candidate)) {
                return candidate;
            }
        }
    }
};

net_sketch to_sketch(const petri_net& net)
{
    net_sketch s;
    s.name = net.name();
    s.place_names.reserve(net.place_count());
    s.tokens.reserve(net.place_count());
    for (const place_id p : net.places()) {
        s.place_names.push_back(net.place_name(p));
        s.tokens.push_back(net.initial_tokens(p));
    }
    s.transition_names.reserve(net.transition_count());
    for (const transition_id t : net.transitions()) {
        s.transition_names.push_back(net.transition_name(t));
        for (const place_weight& in : net.inputs(t)) {
            s.arcs.push_back({true, static_cast<std::uint32_t>(in.place.index()),
                              static_cast<std::uint32_t>(t.index()), in.weight});
        }
        for (const place_weight& out : net.outputs(t)) {
            s.arcs.push_back({false, static_cast<std::uint32_t>(out.place.index()),
                              static_cast<std::uint32_t>(t.index()), out.weight});
        }
    }
    return s;
}

petri_net from_sketch(const net_sketch& s)
{
    net_builder builder(s.name);
    std::vector<place_id> places;
    places.reserve(s.place_names.size());
    for (std::size_t p = 0; p < s.place_names.size(); ++p) {
        places.push_back(builder.add_place(s.place_names[p], s.tokens[p]));
    }
    std::vector<transition_id> transitions;
    transitions.reserve(s.transition_names.size());
    for (const std::string& name : s.transition_names) {
        transitions.push_back(builder.add_transition(name));
    }
    for (const sketch_arc& arc : s.arcs) {
        if (arc.place_to_transition) {
            builder.add_arc(places[arc.place], transitions[arc.transition], arc.weight);
        } else {
            builder.add_arc(transitions[arc.transition], places[arc.place], arc.weight);
        }
    }
    return std::move(builder).build();
}

/// Drops every arc touching place `p`, removes the place, and renumbers the
/// arc list's place indices past it.
void erase_place(net_sketch& s, std::uint32_t p)
{
    std::erase_if(s.arcs, [p](const sketch_arc& arc) { return arc.place == p; });
    for (sketch_arc& arc : s.arcs) {
        if (arc.place > p) {
            --arc.place;
        }
    }
    s.place_names.erase(s.place_names.begin() + p);
    s.tokens.erase(s.tokens.begin() + p);
}

// Each operator returns true when it applied.  Operands are interpreted
// modulo the current counts, so any subset of a plan stays applicable.

bool apply_add_arc(net_sketch& s, const mutation& m)
{
    if (s.place_names.empty() || s.transition_names.empty()) {
        return false;
    }
    const auto p = static_cast<std::uint32_t>(m.a % s.place_names.size());
    const auto t = static_cast<std::uint32_t>((m.b >> 1) % s.transition_names.size());
    const bool place_to_transition = (m.b & 1u) != 0;
    if (s.find_arc(place_to_transition, p, t) != s.arcs.size()) {
        return false;
    }
    s.arcs.push_back({place_to_transition, p, t, std::max<std::int64_t>(1, m.value)});
    return true;
}

bool apply_remove_arc(net_sketch& s, const mutation& m)
{
    if (s.arcs.empty()) {
        return false;
    }
    s.arcs.erase(s.arcs.begin() + static_cast<std::ptrdiff_t>(m.a % s.arcs.size()));
    return true;
}

bool apply_redirect_arc(net_sketch& s, const mutation& m)
{
    if (s.arcs.empty()) {
        return false;
    }
    const std::size_t index = m.a % s.arcs.size();
    sketch_arc moved = s.arcs[index];
    if ((m.b & 1u) != 0) {
        moved.place = static_cast<std::uint32_t>((m.b >> 1) % s.place_names.size());
    } else {
        moved.transition =
            static_cast<std::uint32_t>((m.b >> 1) % s.transition_names.size());
    }
    const std::size_t existing =
        s.find_arc(moved.place_to_transition, moved.place, moved.transition);
    if (existing != s.arcs.size()) {
        return false; // includes redirect-to-self
    }
    s.arcs[index] = moved;
    return true;
}

bool apply_merge_places(net_sketch& s, const mutation& m)
{
    if (s.place_names.size() < 2) {
        return false;
    }
    const auto into = static_cast<std::uint32_t>(m.a % s.place_names.size());
    auto victim = static_cast<std::uint32_t>(m.b % s.place_names.size());
    if (victim == into) {
        victim = (victim + 1) % static_cast<std::uint32_t>(s.place_names.size());
    }
    s.tokens[into] += s.tokens[victim];
    // Re-point the victim's arcs at `into`, folding weight into any arc
    // already connecting the same pair (duplicate arcs are not a thing).
    for (std::size_t i = 0; i < s.arcs.size(); ++i) {
        if (s.arcs[i].place != victim) {
            continue;
        }
        const std::size_t existing =
            s.find_arc(s.arcs[i].place_to_transition, into, s.arcs[i].transition);
        if (existing != s.arcs.size()) {
            s.arcs[existing].weight += s.arcs[i].weight;
            s.arcs[i].weight = 0; // mark for removal below
        } else {
            s.arcs[i].place = into;
        }
    }
    std::erase_if(s.arcs, [](const sketch_arc& arc) { return arc.weight == 0; });
    erase_place(s, victim);
    return true;
}

bool apply_split_place(net_sketch& s, const mutation& m)
{
    if (s.place_names.empty()) {
        return false;
    }
    const auto p = static_cast<std::uint32_t>(m.a % s.place_names.size());
    std::vector<std::size_t> consumer_arcs;
    for (std::size_t i = 0; i < s.arcs.size(); ++i) {
        if (s.arcs[i].place_to_transition && s.arcs[i].place == p) {
            consumer_arcs.push_back(i);
        }
    }
    if (consumer_arcs.size() < 2) {
        return false;
    }
    const auto clone = static_cast<std::uint32_t>(s.place_names.size());
    s.place_names.push_back(s.fresh_name(s.place_names[p], true));
    s.tokens.push_back(s.tokens[p]);
    // Every second consumer moves to the clone; every producer of p also
    // feeds the clone, so the moved consumers stay reachable.
    for (std::size_t i = 1; i < consumer_arcs.size(); i += 2) {
        s.arcs[consumer_arcs[i]].place = clone;
    }
    const std::size_t arc_count = s.arcs.size();
    for (std::size_t i = 0; i < arc_count; ++i) {
        if (!s.arcs[i].place_to_transition && s.arcs[i].place == p) {
            s.arcs.push_back({false, clone, s.arcs[i].transition, s.arcs[i].weight});
        }
    }
    return true;
}

bool apply_perturb_weight(net_sketch& s, const mutation& m)
{
    if (s.arcs.empty()) {
        return false;
    }
    sketch_arc& arc = s.arcs[m.a % s.arcs.size()];
    const std::int64_t weight = std::max<std::int64_t>(1, m.value);
    if (arc.weight == weight) {
        return false;
    }
    arc.weight = weight;
    return true;
}

bool apply_perturb_marking(net_sketch& s, const mutation& m)
{
    if (s.place_names.empty()) {
        return false;
    }
    std::int64_t& tokens = s.tokens[m.a % s.place_names.size()];
    const std::int64_t value = std::max<std::int64_t>(0, m.value);
    if (tokens == value) {
        return false;
    }
    tokens = value;
    return true;
}

bool apply_drop_transition(net_sketch& s, const mutation& m)
{
    if (s.transition_names.size() < 2) {
        return false; // a mutant keeps at least one transition
    }
    const auto t = static_cast<std::uint32_t>(m.a % s.transition_names.size());
    std::erase_if(s.arcs, [t](const sketch_arc& arc) { return arc.transition == t; });
    for (sketch_arc& arc : s.arcs) {
        if (arc.transition > t) {
            --arc.transition;
        }
    }
    s.transition_names.erase(s.transition_names.begin() + t);
    return true;
}

bool apply_duplicate_transition(net_sketch& s, const mutation& m)
{
    if (s.transition_names.empty()) {
        return false;
    }
    const auto t = static_cast<std::uint32_t>(m.a % s.transition_names.size());
    const auto clone = static_cast<std::uint32_t>(s.transition_names.size());
    s.transition_names.push_back(s.fresh_name(s.transition_names[t], false));
    const std::size_t arc_count = s.arcs.size();
    for (std::size_t i = 0; i < arc_count; ++i) {
        if (s.arcs[i].transition == t) {
            s.arcs.push_back(
                {s.arcs[i].place_to_transition, s.arcs[i].place, clone,
                 s.arcs[i].weight});
        }
    }
    return true;
}

bool apply_one(net_sketch& s, const mutation& m)
{
    switch (m.kind) {
    case mutation_kind::add_arc:
        return apply_add_arc(s, m);
    case mutation_kind::remove_arc:
        return apply_remove_arc(s, m);
    case mutation_kind::redirect_arc:
        return apply_redirect_arc(s, m);
    case mutation_kind::merge_places:
        return apply_merge_places(s, m);
    case mutation_kind::split_place:
        return apply_split_place(s, m);
    case mutation_kind::perturb_weight:
        return apply_perturb_weight(s, m);
    case mutation_kind::perturb_marking:
        return apply_perturb_marking(s, m);
    case mutation_kind::drop_transition:
        return apply_drop_transition(s, m);
    case mutation_kind::duplicate_transition:
        return apply_duplicate_transition(s, m);
    }
    return false;
}

} // namespace

std::vector<mutation> plan_mutations(const petri_net& base, std::uint64_t seed,
                                     const mutation_options& options)
{
    // The base net's size folds into the stream so structurally different
    // nets draw different plans from the same seed; for a fixed base the
    // plan is a pure function of the seed.
    prng rng(seed ^ (base.place_count() * 0x9e3779b97f4a7c15ULL) ^
             (base.transition_count() << 17));
    std::vector<mutation> plan;
    plan.reserve(static_cast<std::size_t>(std::max(0, options.count)));
    for (int i = 0; i < options.count; ++i) {
        mutation m;
        m.kind = static_cast<mutation_kind>(rng.below(mutation_kind_count));
        m.a = static_cast<std::uint32_t>(rng.next());
        m.b = static_cast<std::uint32_t>(rng.next());
        switch (m.kind) {
        case mutation_kind::add_arc:
        case mutation_kind::perturb_weight:
            m.value = rng.range(1, max_weight);
            break;
        case mutation_kind::perturb_marking:
            m.value = rng.range(0, max_tokens);
            break;
        default:
            m.value = 1;
            break;
        }
        plan.push_back(m);
    }
    return plan;
}

mutation_result apply_mutations(const petri_net& base, const std::vector<mutation>& plan)
{
    net_sketch s = to_sketch(base);
    mutation_result result;
    result.applied.reserve(plan.size());
    for (const mutation& m : plan) {
        if (apply_one(s, m)) {
            result.applied.push_back(m);
        }
    }
    result.net = from_sketch(s);
    return result;
}

mutation_result mutate(const petri_net& base, std::uint64_t seed,
                       const mutation_options& options)
{
    return apply_mutations(base, plan_mutations(base, seed, options));
}

} // namespace fcqss::pn
