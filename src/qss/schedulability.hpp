// fcqss — qss/schedulability.hpp
// Static schedulability of one T-reduction (Def. 3.5): the reduction must be
// (1) consistent, (2) cover every source transition of the original net with
// a T-invariant, and (3) admit a deadlock-free firing sequence back to the
// initial marking.  The produced sequence is the reduction's finite complete
// cycle, one entry of the valid schedule.
//
// The scheduler checks every distinct T-reduction of a net against one
// net_analysis, computed once per net: the reduction's minimal T-invariants
// are the net's minimal T-invariants whose support lies inside the kept
// transitions, and its cycle is simulated on the net itself.  This is exact:
//  * Premise: every input and output place of a kept transition is kept.
//    The reducer removes a place only once no kept transition produces it,
//    and in an equal-conflict net every consumer of a removed place shares
//    that place's preset, so the reducer removes the consumers with it.
//  * The reduction's incidence matrix is then the net's, restricted to the
//    kept places and transitions: a removed place's row is zero on every
//    kept column.  Its T-semiflows are the net's T-semiflows with support
//    inside the kept transitions (a face of the same cone), so its minimal
//    ones are the net's minimal ones that fit inside.
//  * The order is the same too.  Both lists are primitive vectors sorted
//    lexicographically, and lifting a reduction's vector into the net's
//    index space only inserts zero coordinates.  The greedy cover breaks
//    ties by lowest index, so this matters.
//  * Firing kept transitions moves tokens on kept places only, so the
//    simulation on the net is the simulation on the reduction.
// tests/test_qss_enumeration.cpp pins the premise and both equalities on
// every reduction of the paper nets, the ATM net, the corpus and the
// generator families.
#ifndef FCQSS_QSS_SCHEDULABILITY_HPP
#define FCQSS_QSS_SCHEDULABILITY_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "linalg/int_matrix.hpp"
#include "pn/firing.hpp"
#include "qss/conflict_clusters.hpp"
#include "qss/reduction.hpp"

namespace fcqss::qss {

/// Why a T-reduction failed Def. 3.5.
enum class reduction_failure {
    none,
    /// Not consistent: some transition of the reduction lies in no
    /// T-invariant (Fig. 7: a source place makes the tail unrepeatable).
    inconsistent,
    /// A source transition of the original net is not covered by any
    /// T-invariant of the reduction (Def. 3.5 condition 2).
    source_uncovered,
    /// Simulation of the cycle vector deadlocked before completing
    /// (Def. 3.5 condition 3 / footnote 2).
    deadlock,
};

[[nodiscard]] std::string to_string(reduction_failure f);

/// Stable numeric wire code for a rejection diagnosis, shared by the CLI
/// and the service protocol.  The mapping is part of the wire format (it is
/// pinned by tests): codes are append-only, never renumbered.
[[nodiscard]] int wire_code(reduction_failure f) noexcept;

/// Inverse of wire_code; nullopt for unassigned codes.
[[nodiscard]] std::optional<reduction_failure>
reduction_failure_from_wire(int code) noexcept;

/// Result of checking one reduction.
struct reduction_schedule {
    reduction_failure failure = reduction_failure::none;

    /// Minimal T-invariants of the reduction, in the ORIGINAL net's
    /// transition index space.
    std::vector<linalg::int_vector> invariants;

    /// The cycle vector actually scheduled: a deterministic greedy cover of
    /// the reduction's transitions by minimal invariants (Fig. 5's published
    /// schedule is the sum of its two minimal invariants).
    linalg::int_vector cycle_vector;

    /// The finite complete cycle (original transition ids); empty on failure.
    pn::firing_sequence cycle;

    /// Diagnostics: uncovered transitions (inconsistent), uncovered sources
    /// (source_uncovered), or transitions still owing firings (deadlock).
    std::vector<pn::transition_id> offending;

    [[nodiscard]] bool ok() const noexcept { return failure == reduction_failure::none; }
};

/// What the Def. 3.5 checks read about the net itself, computed once per net
/// and shared by all of its T-reductions.
struct net_analysis {
    /// The choice clusters (choice_clusters order).
    std::vector<choice_cluster> clusters;
    /// The source transitions of the net, ascending.
    std::vector<pn::transition_id> sources;
    /// Per transition: true when it is an alternative of some cluster.
    std::vector<bool> choice_member;
    /// Per transition: the simulator's firing key (conflict_priority_keys).
    std::vector<std::int32_t> priority_keys;
    /// The net's minimal T-invariants, sorted lexicographically
    /// (pn::t_invariants).
    std::vector<linalg::int_vector> t_invariants;

    /// Def. 2.1 from the invariants: at least one exists and together they
    /// cover every transition (pn::is_consistent without a second Farkas run).
    [[nodiscard]] bool consistent() const;
};

/// Builds the analysis, running the Farkas enumeration of the net's
/// T-invariants once.  Throws domain_error when the net is not an
/// (equal-conflict) free-choice net, and resource_limit_error when the
/// enumeration exceeds its row limit.
[[nodiscard]] net_analysis analyze_net(const pn::petri_net& net);

/// Checks Def. 3.5 for `reduction` and constructs its finite complete cycle.
/// The reduction's minimal T-invariants are the analysis's invariants whose
/// support lies inside its kept transitions (exact, see the header comment);
/// no subnet is built and no Farkas enumeration runs.  This is the
/// scheduler's path.
///
/// The firing policy is deterministic and *choice-first*.  Among enabled
/// transitions with remaining firings it fires, in three priority classes:
/// first an allocated conflict transition (keyed by its cluster's minimum
/// transition id), then a non-conflict internal transition (keyed by its
/// own id), and a source transition last, so a new input is admitted only
/// once the running reaction has quiesced.  Resolving choices as early as
/// possible aims at cycles of different reductions that agree on their
/// prefixes until a differently-allocated choice diverges — the property
/// validity Definition 3.1 demands, which the policy does not guarantee.
/// It reproduces the paper's published sequences for Figs. 4 and 5; for
/// Fig. 2 its cycle is t1 t1 t2 t1 t1 t2 t3, not the eager SDF order
/// t1 t1 t1 t1 t2 t2 t3 the figure prints.
[[nodiscard]] reduction_schedule schedule_reduction(const pn::petri_net& net,
                                                    const net_analysis& analysis,
                                                    const t_reduction& reduction);

/// The reduction-local reference: derives the reduction's minimal
/// T-invariants from the reduction alone (materialize, then pn::t_invariants
/// on the subnet, lifted to the net's index space), then runs the same
/// cover and simulation as the overload above.  The two differ only in where
/// the invariants come from.  testutil::brute_force_schedule and perfbench's
/// check_staged call it; the scheduler does not.
[[nodiscard]] reduction_schedule
schedule_reduction(const pn::petri_net& net, const std::vector<choice_cluster>& clusters,
                   const t_reduction& reduction);

} // namespace fcqss::qss

#endif // FCQSS_QSS_SCHEDULABILITY_HPP
