// fcqss — qss/reduction.hpp
// The Reduction Algorithm (Def. 3.4, Fig. 6): given a T-allocation, remove
// the unallocated conflict transitions and the net fragments they orphan.
// The result, a T-reduction, is a conflict-free subnet — the component of the
// net that executes when the control resolves the choices as allocated.
//
// Rule subtleties (validated against the paper's Figs. 6 and 7):
//  * A place downstream of a removed transition is KEPT when its consumer
//    has another live input place that is not currently a source place
//    (rule b.ii).  This deliberately leaves producerless places inside the
//    reductions of join-after-choice nets, making them inconsistent — which
//    is how non-schedulability is detected (Fig. 7).
//  * "Source place" is evaluated against the *current, partially reduced*
//    net: a place whose producers were all removed counts as a source place
//    from that point on (this is what removes p5 and p6 in Fig. 6 step 4).
//  * A transition whose surviving inputs are all source places is removed
//    together with those places (rule c.ii): a bounded initial token supply
//    cannot sustain an infinite cyclic schedule.
#ifndef FCQSS_QSS_REDUCTION_HPP
#define FCQSS_QSS_REDUCTION_HPP

#include <string>
#include <vector>

#include "pn/petri_net.hpp"
#include "qss/t_allocation.hpp"

namespace fcqss::qss {

/// One step of the reduction, for traces (Fig. 6 reproduces these).
struct reduction_step {
    enum class kind {
        remove_unallocated_transition,
        remove_orphaned_place,
        remove_orphaned_transition,
        remove_source_fed_transition,
        remove_source_place,
    };
    kind action;
    /// Name of the removed node (place or transition).
    std::string node;
    /// Why the rule fired, in Fig. 6's style ("Remove t3 (unallocated)").
    std::string reason;

    friend bool operator==(const reduction_step&, const reduction_step&) = default;
};

/// A T-reduction: membership bitmaps over the original net's node spaces.
struct t_reduction {
    std::vector<bool> keep_transition;
    std::vector<bool> keep_place;
    /// The allocation that generated this reduction.
    t_allocation allocation;
    /// Populated when reduce() is asked to record the steps.
    std::vector<reduction_step> trace;

    [[nodiscard]] std::size_t kept_transition_count() const;
    [[nodiscard]] std::size_t kept_place_count() const;
    /// Reductions from different allocations can coincide (choices inside
    /// removed branches are moot); equality on the bitmaps is what the
    /// scheduler deduplicates on.
    [[nodiscard]] bool same_subnet(const t_reduction& other) const;
};

/// Runs the Reduction Algorithm for `allocation` over `net`.
[[nodiscard]] t_reduction reduce(const pn::petri_net& net,
                                 const std::vector<choice_cluster>& clusters,
                                 const t_allocation& allocation,
                                 bool record_trace = false);

/// Runs the same rules with `excluded` (any order, duplicates allowed) as the
/// transitions removed in step (a), so it also applies to a partial
/// allocation: the unchosen alternatives of the clusters decided so far.
/// reduce(net, clusters, a) keeps exactly the nodes that
/// reduce_excluding(net, excluded_transitions(clusters, a)) keeps; the
/// result carries no allocation and no trace.  Removing more transitions
/// never keeps more nodes, which is what lets the scheduler skip choices a
/// partial reduction has already made moot.
[[nodiscard]] t_reduction reduce_excluding(const pn::petri_net& net,
                                           std::vector<pn::transition_id> excluded);

/// The reduction materialized as its own petri_net (names preserved), with
/// maps from the subnet's ids back to the original net's.
struct reduced_net {
    pn::petri_net net;
    std::vector<pn::transition_id> to_original_transition;
    std::vector<pn::place_id> to_original_place;
};

[[nodiscard]] reduced_net materialize(const pn::petri_net& net,
                                      const t_reduction& reduction);

} // namespace fcqss::qss

#endif // FCQSS_QSS_REDUCTION_HPP
