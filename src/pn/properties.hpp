// fcqss — pn/properties.hpp
// Behavioural property checks from Sec. 2: boundedness, safeness,
// deadlock-freedom, liveness.  Boundedness and safeness are decided on the
// coverability tree (Karp–Miller, exact); deadlock-freedom and liveness on
// the explicit reachability graph (exact for bounded nets).  Deadlock-freedom
// runs a requested stubborn reduction as given; check_live always explores
// unreduced, since no reduction here preserves liveness.
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
