// fcqss — pn/properties.hpp
// Behavioural property checks from Sec. 2: boundedness, safeness,
// deadlock-freedom, liveness.  All are decided on the explicit reachability
// graph (exact for bounded nets) or the coverability tree.
#ifndef FCQSS_PN_PROPERTIES_HPP
#define FCQSS_PN_PROPERTIES_HPP

#include <optional>
#include <string>

#include "pn/reachability.hpp"
#include "pn/petri_net.hpp"

namespace fcqss::pn {

/// Tri-state verdict: properties checked on a truncated exploration cannot
/// always be decided.
enum class verdict {
    yes,
    no,
    unknown,
};

[[nodiscard]] std::string to_string(verdict v);

/// k-boundedness over the reachable markings (Sec. 2).  Exact via Karp–Miller.
[[nodiscard]] verdict check_k_bounded(const petri_net& net, std::int64_t k);

/// k-boundedness decided on the explicit reachability graph instead of the
/// coverability tree (useful when the caller already pays for exploration,
/// or wants the engines' thread/reduction knobs).  An over-k witness is
/// definite even on a truncated exploration; "yes" needs the full graph.
/// A `deadlock` or `ltl_x` reduction runs as ltl_x, and each
/// *growable* place is queried in its own exploration observing just that
/// place (the weakest exact visibility set); non-growable places are
/// settled by a root-marking scan.  Definite verdicts match the
/// unreduced check exactly; only which truncated runs come back unknown
/// can differ (see the README reduction-guarantees table).
[[nodiscard]] verdict check_k_bounded_explicit(const petri_net& net, std::int64_t k,
                                              const reachability_options& options = {});

/// Safeness = 1-boundedness.  Lin's method (Sec. 1) assumes this; the paper's
/// point is that QSS does not.
[[nodiscard]] verdict check_safe(const petri_net& net);

/// Deadlock-freedom: from every reachable marking some transition can fire.
[[nodiscard]] verdict check_deadlock_free(const petri_net& net,
                                          const reachability_options& options = {});

/// Liveness: for every reachable marking and every transition t, some
/// continuation re-enables t.  Decided on the reachability graph via SCC
/// analysis (only meaningful for bounded nets; returns unknown otherwise).
[[nodiscard]] verdict check_live(const petri_net& net,
                                 const reachability_options& options = {});

} // namespace fcqss::pn

#endif // FCQSS_PN_PROPERTIES_HPP
