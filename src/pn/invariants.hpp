// fcqss — pn/invariants.hpp
// T- and P-invariants via Farkas minimal-semiflow enumeration, plus the
// consistency and conservativeness predicates built on them (Def. 2.1).
#ifndef FCQSS_PN_INVARIANTS_HPP
#define FCQSS_PN_INVARIANTS_HPP

#include <vector>

#include "linalg/int_matrix.hpp"
#include "pn/petri_net.hpp"

namespace fcqss::pn {

/// All minimal-support T-invariants: minimal x >= 0, x != 0 with C x = 0,
/// indexed by transition.  A firing sequence whose count vector is a
/// T-invariant returns the net to the marking it started from.  Each call
/// is one Farkas enumeration, counted by `pn.invariants.t_runs` when stats
/// are on.
[[nodiscard]] std::vector<linalg::int_vector> t_invariants(const petri_net& net);

/// All minimal-support P-invariants: minimal y >= 0, y != 0 with y^T C = 0,
/// indexed by place.  The y-weighted token sum is preserved by every firing.
[[nodiscard]] std::vector<linalg::int_vector> p_invariants(const petri_net& net);

/// Def. 2.1: the net is consistent iff there exists f > 0 (strictly positive
/// on every transition) with C f = 0 — equivalently, the minimal T-invariants
/// jointly cover all transitions.
[[nodiscard]] bool is_consistent(const petri_net& net);

/// Dual of consistency: exists y > 0 with y^T C = 0.  Conservative nets are
/// structurally bounded.
[[nodiscard]] bool is_conservative(const petri_net& net);

/// Transitions not covered by any minimal T-invariant.  Non-empty exactly
/// when the net is inconsistent; used for diagnostics (Fig. 7 reports the
/// uncovered tail of an inconsistent reduction).
[[nodiscard]] std::vector<transition_id>
transitions_uncovered_by(const petri_net& net,
                         const std::vector<linalg::int_vector>& invariants);

/// The weighted sum y^T m of a marking against a P-invariant.
[[nodiscard]] std::int64_t weighted_token_sum(const linalg::int_vector& p_invariant,
                                              const std::vector<std::int64_t>& marking);

} // namespace fcqss::pn

#endif // FCQSS_PN_INVARIANTS_HPP
