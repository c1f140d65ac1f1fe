#include "pn/stubborn.hpp"

#include <algorithm>
#include <cassert>

#include "obs/obs.hpp"

namespace fcqss::pn {

namespace {

/// One flush per reduce() call: the seed loop itself stays counter-free.
void flush_reduce_obs(std::size_t enabled, std::size_t reduced, std::size_t trials)
{
    static obs::counter& calls = obs::get_counter("pn.stubborn.reduce_calls");
    static obs::counter& seed_trials = obs::get_counter("pn.stubborn.seed_trials");
    static obs::counter& enabled_sum = obs::get_counter("pn.stubborn.enabled_sum");
    static obs::counter& reduced_sum = obs::get_counter("pn.stubborn.reduced_sum");
    static obs::histogram& closure_size =
        obs::get_histogram("pn.stubborn.closure_size", "transitions");
    calls.add(1);
    seed_trials.add(trials);
    enabled_sum.add(enabled);
    reduced_sum.add(reduced);
    closure_size.record(reduced);
}

} // namespace

std::vector<place_id> growable_places(const petri_net& net)
{
    std::vector<std::int64_t> delta(net.place_count(), 0);
    std::vector<std::uint8_t> growable(net.place_count(), 0);
    for (transition_id t : net.transitions()) {
        for (const place_weight& out : net.outputs(t)) {
            delta[out.place.index()] += out.weight;
        }
        for (const place_weight& in : net.inputs(t)) {
            delta[in.place.index()] -= in.weight;
        }
        for (const place_weight& out : net.outputs(t)) {
            growable[out.place.index()] |= delta[out.place.index()] > 0 ? 1 : 0;
            delta[out.place.index()] = 0;
        }
        for (const place_weight& in : net.inputs(t)) {
            delta[in.place.index()] = 0;
        }
    }
    std::vector<place_id> places;
    for (const place_id p : net.places()) {
        if (growable[p.index()]) {
            places.push_back(p);
        }
    }
    return places;
}

stubborn_reduction::stubborn_reduction(const petri_net& net,
                                       std::span<const place_id> observed_places)
    : net_(&net)
{
    conflicts_.resize(net.transition_count());
    for (transition_id t : net.transitions()) {
        std::vector<transition_id>& list = conflicts_[t.index()];
        for (const place_weight& in : net.inputs(t)) {
            for (const transition_weight& c : net.consumers(in.place)) {
                if (c.transition != t) {
                    list.push_back(c.transition);
                }
            }
        }
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
    }

    if (!observed_places.empty()) {
        std::vector<std::uint8_t> observed(net.place_count(), 0);
        for (const place_id p : observed_places) {
            observed[p.index()] = 1;
        }
        // t is visible iff its *net* token delta on some observed place is
        // non-zero — a self-loop arc pair that cancels out never changes
        // what the query sees.
        std::vector<std::int64_t> delta(net.place_count(), 0);
        std::vector<std::size_t> touched;
        visible_.assign(net.transition_count(), 0);
        for (transition_id t : net.transitions()) {
            touched.clear();
            for (const place_weight& in : net.inputs(t)) {
                if (delta[in.place.index()] == 0) {
                    touched.push_back(in.place.index());
                }
                delta[in.place.index()] -= in.weight;
            }
            for (const place_weight& out : net.outputs(t)) {
                if (delta[out.place.index()] == 0 && out.weight != 0) {
                    touched.push_back(out.place.index());
                }
                delta[out.place.index()] += out.weight;
            }
            for (const std::size_t place : touched) {
                if (observed[place] != 0 && delta[place] != 0) {
                    visible_[t.index()] = 1;
                }
                delta[place] = 0;
            }
            if (visible_[t.index()] != 0) {
                visible_list_.push_back(t);
            }
        }
        if (visible_list_.empty()) {
            visible_.clear(); // nothing visible: keep the O(1) fast path
        }
    }
}

place_id stubborn_reduction::scapegoat(const std::int64_t* tokens, transition_id t) const
{
    place_id best;
    std::size_t best_producers = 0;
    for (const place_weight& in : net_->inputs(t)) {
        if (tokens[in.place.index()] < in.weight) {
            const std::size_t producers = net_->producers(in.place).size();
            if (!best.valid() || producers < best_producers) {
                best = in.place;
                best_producers = producers;
                if (producers == 0) {
                    break; // t can never fire again: the empty closure wins
                }
            }
        }
    }
    assert(best.valid()); // a disabled transition has an insufficient input
    return best;
}

std::size_t stubborn_reduction::closure(const std::int64_t* tokens, transition_id seed,
                                        std::size_t bail_out,
                                        stubborn_workspace& ws) const
{
    ws.stack.clear();
    ws.members.clear();
    const auto add = [&](transition_id t) {
        if (!ws.in_set[t.index()]) {
            ws.in_set[t.index()] = 1;
            ws.members.push_back(t);
            ws.stack.push_back(t);
        }
    };
    add(seed);
    std::size_t enabled_members = 0;
    bool visible_pulled = false;
    while (!ws.stack.empty()) {
        const transition_id t = ws.stack.back();
        ws.stack.pop_back();
        if (ws.is_enabled[t.index()]) {
            if (++enabled_members >= bail_out) {
                return bail_out; // cannot beat the incumbent; abandon
            }
            for (const transition_id other : conflicts_[t.index()]) {
                add(other);
            }
            // Condition V: an enabled visible member drags every visible
            // transition into the set (disabled ones D1-close as usual), so
            // visible firings are only ever stuttered, never reordered.
            if (!visible_pulled && visible(t)) {
                visible_pulled = true;
                for (const transition_id v : visible_list_) {
                    add(v);
                }
            }
        } else {
            for (const transition_weight& producer :
                 net_->producers(scapegoat(tokens, t))) {
                add(producer.transition);
            }
        }
    }
    return enabled_members;
}

void stubborn_reduction::reduce(const std::int64_t* tokens,
                                std::span<const transition_id> enabled,
                                stubborn_workspace& ws,
                                std::vector<transition_id>& out) const
{
    if (enabled.size() <= 1) {
        out.assign(enabled.begin(), enabled.end());
        if (obs::stats_enabled()) {
            flush_reduce_obs(enabled.size(), out.size(), 0);
        }
        return;
    }
    const std::size_t transition_count = net_->transition_count();
    if (ws.in_set.size() != transition_count) {
        ws.in_set.assign(transition_count, 0);
        ws.is_enabled.assign(transition_count, 0);
    }
    for (const transition_id t : enabled) {
        ws.is_enabled[t.index()] = 1;
    }

    // Condition I (with a non-empty visibility set): when an
    // invisible enabled transition exists, only invisible seeds are tried —
    // the chosen closure then contains its (enabled, invisible) seed, so
    // the reduction never forces visible-only progress it could stutter.
    // When every enabled transition is visible, condition V makes any seed
    // close over all of them, so the seed choice is moot.
    const bool restrict_to_invisible = [&] {
        if (visible_list_.empty()) {
            return false;
        }
        for (const transition_id t : enabled) {
            if (!visible(t)) {
                return true;
            }
        }
        return false;
    }();

    // Every candidate seed's closure competes; keep the seed whose closure
    // contains the fewest enabled transitions (ties to the lowest seed id,
    // since later seeds only win strictly).  A singleton is optimal, so
    // stop the moment one appears.  Because every seed is enabled, every
    // chosen set has an enabled key transition by construction.
    std::size_t best_count = enabled.size();
    std::size_t obs_trials = 0;
    ws.best.clear();
    for (const transition_id seed : enabled) {
        if (restrict_to_invisible && visible(seed)) {
            continue;
        }
        ++obs_trials;
        const std::size_t count = closure(tokens, seed, best_count, ws);
        if (count < best_count) {
            best_count = count;
            ws.best.clear();
            for (const transition_id t : enabled) {
                if (ws.in_set[t.index()]) {
                    ws.best.push_back(t);
                }
            }
        }
        for (const transition_id t : ws.members) {
            ws.in_set[t.index()] = 0;
        }
        if (best_count == 1) {
            break;
        }
    }
    for (const transition_id t : enabled) {
        ws.is_enabled[t.index()] = 0;
    }

    if (ws.best.empty()) {
        // No seed improved on the full set.
        out.assign(enabled.begin(), enabled.end());
    } else {
        out = ws.best;
    }
    if (obs::stats_enabled()) {
        flush_reduce_obs(enabled.size(), out.size(), obs_trials);
    }
}

} // namespace fcqss::pn
