#include "qss/schedulability.hpp"

#include <algorithm>
#include <tuple>

#include "base/error.hpp"
#include "linalg/checked.hpp"
#include "obs/obs.hpp"
#include "pn/invariants.hpp"
#include "pn/structure.hpp"

namespace fcqss::qss {

std::string to_string(reduction_failure f)
{
    switch (f) {
    case reduction_failure::none: return "schedulable";
    case reduction_failure::inconsistent: return "inconsistent";
    case reduction_failure::source_uncovered: return "source transition uncovered";
    case reduction_failure::deadlock: return "deadlock";
    }
    return "unknown";
}

int wire_code(reduction_failure f) noexcept
{
    // Append-only: these numbers are on the wire and in exit codes.
    switch (f) {
    case reduction_failure::none: return 0;
    case reduction_failure::inconsistent: return 1;
    case reduction_failure::source_uncovered: return 2;
    case reduction_failure::deadlock: return 3;
    }
    return -1;
}

std::optional<reduction_failure> reduction_failure_from_wire(int code) noexcept
{
    switch (code) {
    case 0: return reduction_failure::none;
    case 1: return reduction_failure::inconsistent;
    case 2: return reduction_failure::source_uncovered;
    case 3: return reduction_failure::deadlock;
    default: return std::nullopt;
    }
}

namespace {

// Greedy deterministic cover of the reduction's transitions by minimal
// invariants: repeatedly take the invariant covering the most uncovered
// transitions (ties: lowest index).  Returns indices into `invariants`.
std::vector<std::size_t> greedy_invariant_cover(
    const std::vector<linalg::int_vector>& invariants, std::size_t transition_count,
    const std::vector<bool>& needs_cover)
{
    std::vector<bool> covered(transition_count, false);
    std::size_t uncovered_count = 0;
    for (std::size_t i = 0; i < transition_count; ++i) {
        if (needs_cover[i]) {
            ++uncovered_count;
        } else {
            covered[i] = true;
        }
    }

    std::vector<std::size_t> chosen;
    while (uncovered_count > 0) {
        std::size_t best = invariants.size();
        std::size_t best_gain = 0;
        for (std::size_t i = 0; i < invariants.size(); ++i) {
            std::size_t gain = 0;
            for (std::size_t t : linalg::support(invariants[i])) {
                if (!covered[t]) {
                    ++gain;
                }
            }
            if (gain > best_gain) {
                best_gain = gain;
                best = i;
            }
        }
        require_internal(best < invariants.size(),
                         "greedy_invariant_cover: uncoverable transition slipped "
                         "past the consistency check");
        chosen.push_back(best);
        for (std::size_t t : linalg::support(invariants[best])) {
            if (!covered[t]) {
                covered[t] = true;
                --uncovered_count;
            }
        }
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
}

// Deterministic choice-first simulation of `target` firings per transition
// on the net itself.  `target` is zero outside the reduction's kept
// transitions, and those touch kept places only, so this is the simulation
// on the reduction.  Returns the sequence, or the list of transitions still
// owing firings on deadlock.
struct simulation_outcome {
    pn::firing_sequence cycle;
    std::vector<pn::transition_id> stalled;
    bool ok = false;
};

simulation_outcome simulate_cycle(const pn::petri_net& net, const net_analysis& analysis,
                                  const linalg::int_vector& target)
{
    simulation_outcome outcome;
    const pn::marking initial = pn::initial_marking(net);
    pn::marking m = initial;

    // The transitions owing firings, ascending, so ties go to the lowest id.
    std::vector<pn::transition_id> pending;
    linalg::int_vector remaining = target;
    std::int64_t total = 0;
    for (pn::transition_id t : net.transitions()) {
        if (remaining[t.index()] != 0) {
            pending.push_back(t);
            total = linalg::checked_add(total, remaining[t.index()]);
        }
    }
    outcome.cycle.reserve(static_cast<std::size_t>(total));

    while (total > 0) {
        // Select the highest-priority enabled transition with work left.
        // Priority classes: (0) allocated conflict transitions, keyed by
        // their cluster's minimum id, so choices resolve at the earliest
        // possible position and cycles of different reductions share
        // prefixes until they diverge at a choice (Def. 3.1); (1) plain
        // internal transitions, token-driven; (2) source transitions last —
        // a new input is admitted only when the current reaction has
        // quiesced, so multiplicity differences between reductions surface
        // only after the choice that causes them has fired.
        std::optional<pn::transition_id> best;
        std::tuple<int, std::int32_t> best_key{3, 0};
        for (pn::transition_id t : pending) {
            if (remaining[t.index()] == 0 || !pn::is_enabled(net, m, t)) {
                continue;
            }
            int priority_class = 1;
            if (analysis.choice_member[t.index()]) {
                priority_class = 0;
            } else if (net.inputs(t).empty()) {
                priority_class = 2;
            }
            const std::tuple<int, std::int32_t> key{priority_class,
                                                    analysis.priority_keys[t.index()]};
            if (!best || key < best_key) {
                best = t;
                best_key = key;
            }
        }
        if (!best) {
            for (pn::transition_id t : pending) {
                if (remaining[t.index()] > 0) {
                    outcome.stalled.push_back(t);
                }
            }
            return outcome;
        }
        pn::fire_unchecked(net, m, *best);
        --remaining[best->index()];
        --total;
        outcome.cycle.push_back(*best);
    }

    require_internal(m == initial,
                     "simulate_cycle: T-invariant firing did not restore the marking");
    outcome.ok = true;
    return outcome;
}

// The minimal T-invariants of the reduction alone: its subnet's, lifted to
// the net's transition index space.
std::vector<linalg::int_vector> reduction_local_invariants(const pn::petri_net& net,
                                                           const t_reduction& reduction)
{
    const reduced_net sub = materialize(net, reduction);
    std::vector<linalg::int_vector> lifted;
    for (const linalg::int_vector& x : pn::t_invariants(sub.net)) {
        linalg::int_vector y(net.transition_count(), 0);
        for (std::size_t i = 0; i < x.size(); ++i) {
            y[sub.to_original_transition[i].index()] = x[i];
        }
        lifted.push_back(std::move(y));
    }
    return lifted;
}

// The net's minimal T-invariants whose support lies inside the kept
// transitions: the reduction's minimal T-invariants, in the same order.
std::vector<linalg::int_vector> invariants_inside(const net_analysis& analysis,
                                                  const t_reduction& reduction)
{
    std::vector<linalg::int_vector> inside;
    for (const linalg::int_vector& x : analysis.t_invariants) {
        bool fits = true;
        for (std::size_t t = 0; fits && t < x.size(); ++t) {
            fits = x[t] == 0 || reduction.keep_transition[t];
        }
        if (fits) {
            inside.push_back(x);
        }
    }
    return inside;
}

// Everything of the analysis but the invariants, from clusters already
// extracted.
net_analysis firing_policy(const pn::petri_net& net, std::vector<choice_cluster> clusters)
{
    net_analysis analysis;
    analysis.sources = pn::source_transitions(net);
    analysis.choice_member.assign(net.transition_count(), false);
    for (const choice_cluster& cluster : clusters) {
        for (pn::transition_id t : cluster.alternatives) {
            analysis.choice_member[t.index()] = true;
        }
    }
    analysis.priority_keys = conflict_priority_keys(net, clusters);
    analysis.clusters = std::move(clusters);
    return analysis;
}

// Def. 3.5-1 and -2 on `result.invariants`: every kept transition lies in
// a T-invariant.  On failure records the class and the offending
// transitions and returns false.
bool invariants_cover_reduction(const net_analysis& analysis,
                                const t_reduction& reduction, reduction_schedule& result)
{
    std::vector<bool> covered(reduction.keep_transition.size(), false);
    for (const linalg::int_vector& x : result.invariants) {
        for (std::size_t t : linalg::support(x)) {
            covered[t] = true;
        }
    }
    std::vector<pn::transition_id> uncovered;
    for (std::size_t t = 0; t < covered.size(); ++t) {
        if (reduction.keep_transition[t] && !covered[t]) {
            uncovered.emplace_back(static_cast<std::int32_t>(t));
        }
    }
    if (uncovered.empty()) {
        return true;
    }
    if (result.invariants.empty()) {
        // No cyclic behaviour at all: the reduction can only execute
        // finitely (Fig. 7's "inconsistent" reductions).
        result.failure = reduction_failure::inconsistent;
        result.offending = std::move(uncovered);
        return false;
    }
    // Some invariants exist; if a source of N is among the uncovered
    // transitions report Def. 3.5-2 specifically, else inconsistency.
    std::vector<pn::transition_id> uncovered_sources;
    for (pn::transition_id s : analysis.sources) {
        if (std::find(uncovered.begin(), uncovered.end(), s) != uncovered.end()) {
            uncovered_sources.push_back(s);
        }
    }
    if (!uncovered_sources.empty()) {
        result.failure = reduction_failure::source_uncovered;
        result.offending = std::move(uncovered_sources);
    } else {
        result.failure = reduction_failure::inconsistent;
        result.offending = std::move(uncovered);
    }
    return false;
}

// Def. 3.5 on `reduction`, with `derive_invariants` supplying its minimal
// T-invariants in the net's index space.  With stats on, the time up to the
// cycle vector goes to qss.invariant_ns and the simulation to
// qss.simulate_ns.
template <typename DeriveInvariants>
reduction_schedule check_reduction(const pn::petri_net& net, const net_analysis& analysis,
                                   const t_reduction& reduction,
                                   DeriveInvariants&& derive_invariants)
{
    if (reduction.keep_transition.size() != net.transition_count() ||
        reduction.keep_place.size() != net.place_count() ||
        analysis.choice_member.size() != net.transition_count()) {
        throw model_error("schedule_reduction: reduction or analysis does not match "
                          "net dimensions");
    }
    // A reduction that keeps no node has no subnet.  Materializing it fails
    // with the net builder's error, and that has always been the verdict on
    // such a net, so the scheduler's path gives the same one.
    const auto keeps_any = [](const std::vector<bool>& keep) {
        return std::find(keep.begin(), keep.end(), true) != keep.end();
    };
    if (!keeps_any(reduction.keep_transition) && !keeps_any(reduction.keep_place)) {
        throw model_error("net_builder: empty net");
    }
    const bool stats = obs::stats_enabled();
    const std::uint64_t start_ns = stats ? obs::now_ns() : 0;
    reduction_schedule result;
    result.invariants = derive_invariants();
    const bool consistent = invariants_cover_reduction(analysis, reduction, result);
    if (consistent) {
        // Cycle vector: sum of a deterministic greedy invariant cover.
        const std::vector<std::size_t> cover = greedy_invariant_cover(
            result.invariants, net.transition_count(), reduction.keep_transition);
        result.cycle_vector.assign(net.transition_count(), 0);
        for (std::size_t i : cover) {
            result.cycle_vector = linalg::add(result.cycle_vector, result.invariants[i]);
        }
    }
    const std::uint64_t covered_ns = stats ? obs::now_ns() : 0;

    // Def. 3.5-3: simulate.  If the minimal cover deadlocks, small multiples
    // can still complete on weighted nets, so retry a few before giving up.
    constexpr std::int64_t max_cycle_multiplier = 4;
    for (std::int64_t k = 1; consistent && k <= max_cycle_multiplier; ++k) {
        const linalg::int_vector target =
            k == 1 ? result.cycle_vector : linalg::scale(result.cycle_vector, k);
        simulation_outcome outcome = simulate_cycle(net, analysis, target);
        if (outcome.ok) {
            if (k > 1) {
                result.cycle_vector = target;
            }
            result.cycle = std::move(outcome.cycle);
            break;
        }
        if (k == max_cycle_multiplier) {
            result.failure = reduction_failure::deadlock;
            result.offending = std::move(outcome.stalled);
        }
    }

    if (stats) {
        static obs::counter& invariant_ns = obs::get_counter("qss.invariant_ns", "ns");
        static obs::counter& simulate_ns = obs::get_counter("qss.simulate_ns", "ns");
        invariant_ns.add(covered_ns - start_ns);
        simulate_ns.add(obs::now_ns() - covered_ns);
    }
    return result;
}

} // namespace

bool net_analysis::consistent() const
{
    std::vector<bool> covered(choice_member.size(), false);
    for (const linalg::int_vector& x : t_invariants) {
        for (std::size_t t : linalg::support(x)) {
            covered[t] = true;
        }
    }
    return !t_invariants.empty() &&
           std::all_of(covered.begin(), covered.end(), [](bool c) { return c; });
}

net_analysis analyze_net(const pn::petri_net& net)
{
    net_analysis analysis = firing_policy(net, choice_clusters(net));
    analysis.t_invariants = pn::t_invariants(net);
    return analysis;
}

reduction_schedule schedule_reduction(const pn::petri_net& net,
                                      const net_analysis& analysis,
                                      const t_reduction& reduction)
{
    return check_reduction(net, analysis, reduction,
                           [&] { return invariants_inside(analysis, reduction); });
}

reduction_schedule schedule_reduction(const pn::petri_net& net,
                                      const std::vector<choice_cluster>& clusters,
                                      const t_reduction& reduction)
{
    return check_reduction(net, firing_policy(net, clusters), reduction,
                           [&] { return reduction_local_invariants(net, reduction); });
}

} // namespace fcqss::qss
