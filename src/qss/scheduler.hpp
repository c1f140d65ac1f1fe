// fcqss — qss/scheduler.hpp
// The complete QSS pipeline (Sec. 3): enumerate the distinct T-reductions,
// check Def. 3.5 on each, and assemble the valid schedule — one finite
// complete cycle per distinct T-reduction.  By Theorem 3.1 the net is
// quasi-statically schedulable iff every reduction passes; the algorithm is
// complete for free-choice nets.
//
// Allocations that differ only in choices inside removed branches share a
// reduction, so the scheduler enumerates reductions, not allocations: a
// depth-first walk over the choice clusters in odometer order reduces each
// decided prefix and, for every later cluster whose choice place that
// partial reduction already removed, follows only the first alternative.
// In a free-choice net the choice place is the only input of its
// alternatives and the reduction is monotone in the removed set, so such a
// choice cannot change the reduction.  Each distinct reduction comes out
// once, in order of its first allocation in odometer order, represented by
// that (lowest-index) allocation — the same entries, in the same order, as
// reducing every allocation and keeping first occurrences.
//
// Every reduction is checked against one net_analysis of the net (see
// qss/schedulability.hpp for why this is exact): its minimal T-invariants
// are the net's minimal T-invariants whose support lies inside its kept
// transitions, and its cycle is simulated on the net.  So a schedule costs
// one Farkas enumeration, for the whole net, and builds no subnet.  The
// pipeline's structural stage computes the analysis and hands it to the
// schedule stage; called on its own, the scheduler computes it itself.  The
// reduction-local schedule_reduction(net, clusters, reduction), which
// materializes each reduction and runs Farkas on it, is the reference the
// tests (testutil::brute_force_schedule) and perfbench's check_staged call;
// the scheduler does not.
#ifndef FCQSS_QSS_SCHEDULER_HPP
#define FCQSS_QSS_SCHEDULER_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "pn/firing.hpp"
#include "qss/schedulability.hpp"

namespace fcqss::qss {

/// Tuning knobs for the scheduler.
struct scheduler_options {
    /// Throw resource_limit_error when the allocation space (allocation_count,
    /// exponential in the number of choice clusters) is larger than this.
    /// The cap bounds the space, not the distinct reductions actually
    /// enumerated, so verdicts do not depend on how well choices prune.
    std::size_t max_allocations = 1u << 20;
};

/// One entry of the valid schedule: a distinct T-reduction (generated by its
/// lowest-index allocation) together with its finite complete cycle.
struct schedule_entry {
    t_reduction reduction;
    reduction_schedule analysis;
};

/// Outcome of quasi-static scheduling.
struct qss_result {
    /// True iff every distinct T-reduction is schedulable (Theorem 3.1).
    bool schedulable = false;

    /// All distinct T-reductions with their cycles (the valid schedule when
    /// schedulable; partial diagnostics otherwise), in order of their first
    /// allocation.
    std::vector<schedule_entry> entries;

    /// The choice clusters of the net (the digits of the odometer order).
    std::vector<choice_cluster> clusters;

    /// Size of the allocation space (product of cluster sizes) — the
    /// allocations the distinct reductions stand for, not the reductions
    /// computed to find them (see the qss.* obs counters for those).
    std::size_t allocations_enumerated = 0;

    /// Human-readable failure summary; empty when schedulable.
    std::string diagnosis;

    /// The first failing reduction's diagnosis class (reduction_failure::none
    /// when schedulable) — the machine-readable twin of `diagnosis`, carried
    /// to CLI exit codes and the service wire format via wire_code().
    reduction_failure failure = reduction_failure::none;

    /// The finite complete cycles, in entry order (convenience view).
    [[nodiscard]] std::vector<pn::firing_sequence> cycles() const;
};

/// Runs the full QSS algorithm on an (equal-conflict) free-choice net, with
/// `analysis` = analyze_net(net) computed beforehand.  Throws
/// resource_limit_error when the allocation space exceeds
/// options.max_allocations; returns a result with schedulable == false and a
/// diagnosis when the net is not quasi-statically schedulable.
[[nodiscard]] qss_result quasi_static_schedule(const pn::petri_net& net,
                                               const net_analysis& analysis,
                                               const scheduler_options& options = {});

/// The same, computing the analysis itself once the allocation cap has
/// passed.  Throws domain_error when the net is outside the class.
[[nodiscard]] qss_result quasi_static_schedule(const pn::petri_net& net,
                                               const scheduler_options& options = {});

} // namespace fcqss::qss

#endif // FCQSS_QSS_SCHEDULER_HPP
