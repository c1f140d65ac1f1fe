#include "qss/reduction.hpp"

#include <algorithm>
#include <deque>

#include "base/error.hpp"
#include "pn/builder.hpp"

namespace fcqss::qss {

std::size_t t_reduction::kept_transition_count() const
{
    std::size_t count = 0;
    for (bool keep : keep_transition) {
        count += keep ? 1 : 0;
    }
    return count;
}

std::size_t t_reduction::kept_place_count() const
{
    std::size_t count = 0;
    for (bool keep : keep_place) {
        count += keep ? 1 : 0;
    }
    return count;
}

bool t_reduction::same_subnet(const t_reduction& other) const
{
    return keep_transition == other.keep_transition && keep_place == other.keep_place;
}

namespace {

// Mutable state of one reduction run; the rule helpers below all read the
// current (partially reduced) net through this.
class reducer {
public:
    reducer(const pn::petri_net& net, bool record_trace)
        : net_(net), record_trace_(record_trace)
    {
        result_.keep_transition.assign(net.transition_count(), true);
        result_.keep_place.assign(net.place_count(), true);
    }

    t_reduction run(const std::vector<pn::transition_id>& excluded)
    {
        for (pn::transition_id t : excluded) {
            remove_transition(t, reduction_step::kind::remove_unallocated_transition,
                              "unallocated");
        }
        // Fixpoint: a place kept by rule b.ii can become removable once its
        // consumer's other input loses its last producer, so re-sweep until
        // nothing changes (step d of the algorithm).
        drain();
        while (resweep()) {
            drain();
        }
        return std::move(result_);
    }

private:
    [[nodiscard]] bool kept(pn::transition_id t) const
    {
        return result_.keep_transition[t.index()];
    }
    [[nodiscard]] bool kept(pn::place_id p) const
    {
        return result_.keep_place[p.index()];
    }

    [[nodiscard]] bool has_kept_producer(pn::place_id p) const
    {
        for (const pn::transition_weight& producer : net_.producers(p)) {
            if (kept(producer.transition)) {
                return true;
            }
        }
        return false;
    }

    /// True when p has a surviving producer other than `excluding` — a
    /// self-loop place (read-modify-write state) is NOT an independent
    /// supply for its own consumer, so rule b.ii must not count it.
    [[nodiscard]] bool has_independent_producer(pn::place_id p,
                                                pn::transition_id excluding) const
    {
        for (const pn::transition_weight& producer : net_.producers(p)) {
            if (kept(producer.transition) && producer.transition != excluding) {
                return true;
            }
        }
        return false;
    }

    void record(reduction_step::kind action, const std::string& node,
                const std::string& reason)
    {
        if (record_trace_) {
            result_.trace.push_back({action, node, reason});
        }
    }

    void remove_transition(pn::transition_id t, reduction_step::kind action,
                           const std::string& reason)
    {
        if (!kept(t)) {
            return;
        }
        result_.keep_transition[t.index()] = false;
        record(action, net_.transition_name(t), reason);
        removed_transitions_.push_back(t);
    }

    void remove_place(pn::place_id p, reduction_step::kind action,
                      const std::string& reason)
    {
        if (!kept(p)) {
            return;
        }
        result_.keep_place[p.index()] = false;
        record(action, net_.place_name(p), reason);
        removed_places_.push_back(p);
    }

    // Rule (b): decide whether a postset place of a removed transition stays.
    // Keep when (i) it still has a producer, or (ii) some surviving consumer
    // has another surviving input place with an independent live supply —
    // the join-after-choice pattern that must be preserved so the
    // consistency check can reject it (Fig. 7).  A consumer's own self-loop
    // state place is not an independent supply.
    [[nodiscard]] bool place_must_stay(pn::place_id s) const
    {
        if (has_kept_producer(s)) {
            return true; // rule b.i
        }
        for (const pn::transition_weight& consumer : net_.consumers(s)) {
            if (!kept(consumer.transition)) {
                continue;
            }
            for (const pn::place_weight& other_input : net_.inputs(consumer.transition)) {
                if (other_input.place == s || !kept(other_input.place)) {
                    continue;
                }
                if (has_independent_producer(other_input.place, consumer.transition)) {
                    return true; // rule b.ii
                }
            }
        }
        return false;
    }

    // Rule (c): after removing place s, a surviving consumer goes when it
    // has no surviving inputs (c.i) or only dead-supply inputs (c.ii):
    // source places and its own self-loop state places provide finitely many
    // independent tokens, which cannot sustain an infinite cyclic schedule.
    // Those places are removed with it.
    void apply_rule_c(pn::transition_id t_j)
    {
        if (!kept(t_j)) {
            return;
        }
        std::vector<pn::place_id> kept_inputs;
        for (const pn::place_weight& in : net_.inputs(t_j)) {
            if (kept(in.place)) {
                kept_inputs.push_back(in.place);
            }
        }
        if (kept_inputs.empty()) {
            remove_transition(t_j, reduction_step::kind::remove_orphaned_transition,
                              "no remaining input places");
            return;
        }
        for (pn::place_id p : kept_inputs) {
            if (has_independent_producer(p, t_j)) {
                return;
            }
        }
        remove_transition(t_j, reduction_step::kind::remove_source_fed_transition,
                          "all remaining inputs are source or self-loop places");
        for (pn::place_id p : kept_inputs) {
            remove_place(p, reduction_step::kind::remove_source_place,
                         "dead-supply place feeding removed transition");
        }
    }

    void drain()
    {
        while (!removed_transitions_.empty() || !removed_places_.empty()) {
            if (!removed_transitions_.empty()) {
                const pn::transition_id t_k = removed_transitions_.front();
                removed_transitions_.pop_front();
                for (const pn::place_weight& out : net_.outputs(t_k)) {
                    if (kept(out.place) && !place_must_stay(out.place)) {
                        remove_place(out.place,
                                     reduction_step::kind::remove_orphaned_place,
                                     "no producer left and no surviving join");
                    }
                }
                continue;
            }
            const pn::place_id p = removed_places_.front();
            removed_places_.pop_front();
            for (const pn::transition_weight& consumer : net_.consumers(p)) {
                apply_rule_c(consumer.transition);
            }
        }
    }

    // Step (d): re-test every surviving postset place of a removed
    // transition; returns whether anything changed.
    bool resweep()
    {
        bool changed = false;
        for (pn::transition_id t : net_.transitions()) {
            if (kept(t)) {
                continue;
            }
            for (const pn::place_weight& out : net_.outputs(t)) {
                if (kept(out.place) && !place_must_stay(out.place)) {
                    remove_place(out.place, reduction_step::kind::remove_orphaned_place,
                                 "no producer left and no surviving join (re-sweep)");
                    changed = true;
                }
            }
        }
        return changed;
    }

    const pn::petri_net& net_;
    bool record_trace_;
    t_reduction result_;
    std::deque<pn::transition_id> removed_transitions_;
    std::deque<pn::place_id> removed_places_;
};

} // namespace

t_reduction reduce(const pn::petri_net& net, const std::vector<choice_cluster>& clusters,
                   const t_allocation& allocation, bool record_trace)
{
    if (allocation.chosen.size() != clusters.size()) {
        throw model_error("reduce: allocation does not match cluster count");
    }
    t_reduction result =
        reducer(net, record_trace).run(excluded_transitions(clusters, allocation));
    result.allocation = allocation;
    return result;
}

t_reduction reduce_excluding(const pn::petri_net& net,
                             std::vector<pn::transition_id> excluded)
{
    // The same ascending, duplicate-free removal order reduce() uses.
    std::sort(excluded.begin(), excluded.end());
    excluded.erase(std::unique(excluded.begin(), excluded.end()), excluded.end());
    return reducer(net, false).run(excluded);
}

reduced_net materialize(const pn::petri_net& net, const t_reduction& reduction)
{
    if (reduction.keep_transition.size() != net.transition_count() ||
        reduction.keep_place.size() != net.place_count()) {
        throw model_error("materialize: reduction does not match net dimensions");
    }
    pn::net_builder builder(net.name() + "_reduced");
    reduced_net result;

    std::vector<pn::place_id> place_map(net.place_count());
    for (pn::place_id p : net.places()) {
        if (!reduction.keep_place[p.index()]) {
            continue;
        }
        place_map[p.index()] =
            builder.add_place(net.place_name(p), net.initial_tokens(p));
        result.to_original_place.push_back(p);
    }
    std::vector<pn::transition_id> transition_map(net.transition_count());
    for (pn::transition_id t : net.transitions()) {
        if (!reduction.keep_transition[t.index()]) {
            continue;
        }
        transition_map[t.index()] = builder.add_transition(net.transition_name(t));
        result.to_original_transition.push_back(t);
    }

    for (pn::transition_id t : net.transitions()) {
        if (!reduction.keep_transition[t.index()]) {
            continue;
        }
        for (const pn::place_weight& in : net.inputs(t)) {
            if (reduction.keep_place[in.place.index()]) {
                builder.add_arc(place_map[in.place.index()], transition_map[t.index()],
                                in.weight);
            }
        }
        for (const pn::place_weight& out : net.outputs(t)) {
            if (reduction.keep_place[out.place.index()]) {
                builder.add_arc(transition_map[t.index()], place_map[out.place.index()],
                                out.weight);
            }
        }
    }

    result.net = std::move(builder).build();
    return result;
}

} // namespace fcqss::qss
