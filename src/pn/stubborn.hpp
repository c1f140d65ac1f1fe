// fcqss — pn/stubborn.hpp
// Stubborn-set partial-order reduction (Valmari).  At a marking M the
// engines normally expand every enabled transition; with reduction they
// expand only a *stubborn subset* S ∩ En(M), where S is the closure of one
// enabled seed under two structural rules:
//
//   (D2)  for every enabled t in S, every transition sharing an input place
//         with t is in S — nothing outside S can disable t, and firing t
//         cannot disable anything outside S;
//   (D1)  for every disabled t in S, all producers of one insufficiently
//         marked input place of t (the "scapegoat") are in S — nothing
//         outside S can enable t.
//
// With these, any firing sequence from M to a dead marking can be permuted
// so its first transition lies in S ∩ En(M); by induction every reachable
// dead marking stays reachable in the reduced graph, so deadlock verdicts
// (and the set of reachable dead markings) are preserved exactly.  That is
// reduction_kind::deadlock — the full reachability *set* is NOT preserved,
// and neither are liveness or other temporal properties: a cycle of cheap
// closures can keep expanding one process while another stays enabled and
// is never fired (the "ignoring" problem), so liveness can only be read
// off an unreduced graph.
//
// The reduction has no visibility condition, so it preserves nothing over
// place counts (bounds, reachability of a marking).  Karp–Miller
// (pn/coverability.hpp) decides boundedness exactly.
//
// Both per-state rules are precomputed once per net from the incidence data
// (the conflict relation is the same consumer index behind the engines'
// incremental enabled sets); the per-state closure is a deterministic
// function of the marking alone, which keeps the parallel engine's
// bit-identical-at-any-thread-count guarantee intact.
#ifndef FCQSS_PN_STUBBORN_HPP
#define FCQSS_PN_STUBBORN_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "pn/petri_net.hpp"

namespace fcqss::pn {

/// Which partial-order reduction the exploration engines apply per state,
/// and so what the explored graph preserves.
enum class reduction_kind {
    /// Expand every enabled transition: the full state graph.
    none,
    /// Stubborn sets under D1/D2.  Preserves has-deadlock and the set of
    /// reachable dead markings; does NOT preserve the reachability set,
    /// liveness, or any other temporal property.
    deadlock,
};

/// Per-thread scratch for stubborn_reduction::reduce(): flag arrays sized
/// |T| plus the closure work lists.  Reusing one workspace across states
/// keeps the per-state cost at O(closure), not O(|T|); distinct threads
/// must use distinct workspaces.
struct stubborn_workspace {
    std::vector<std::uint8_t> in_set;     ///< closure membership, reset via members
    std::vector<std::uint8_t> is_enabled; ///< membership in the enabled set
    std::vector<transition_id> stack;     ///< closure work list
    std::vector<transition_id> members;   ///< closure members, for flag reset
    std::vector<transition_id> best;      ///< smallest enabled subset so far
};

/// Structural stubborn-set computer for one net.  Construction precomputes
/// the conflict relation; reduce() is const and safe to call concurrently
/// with per-thread workspaces.
class stubborn_reduction {
public:
    explicit stubborn_reduction(const petri_net& net);

    /// Computes the stubborn subset of `enabled` (the exact enabled set of
    /// `tokens`, ascending) to expand at this marking.  Writes the subset to
    /// `out`, ascending; `out` always contains at least one transition when
    /// `enabled` is non-empty, and equals `enabled` when no reduction
    /// applies.  Deterministic in (tokens, enabled) only.
    void reduce(const std::int64_t* tokens, std::span<const transition_id> enabled,
                stubborn_workspace& ws, std::vector<transition_id>& out) const;

private:
    /// Closes over {seed} under D1/D2 at `tokens`, marking members in
    /// ws.in_set / ws.members.  Returns the number of enabled members, or
    /// `bail_out` as soon as that many are seen (the caller already has a
    /// set this small, so the rest of the closure cannot matter).
    [[nodiscard]] std::size_t closure(const std::int64_t* tokens, transition_id seed,
                                      std::size_t bail_out,
                                      stubborn_workspace& ws) const;

    /// The insufficiently marked input place of a disabled t whose producer
    /// set is smallest (ties to the lowest place id) — the D1 scapegoat.
    [[nodiscard]] place_id scapegoat(const std::int64_t* tokens,
                                     transition_id t) const;

    const petri_net* net_;
    /// conflicts_[t]: transitions other than t sharing an input place with t
    /// (the consumers of •t), ascending — the D2 rule, precomputed.
    std::vector<std::vector<transition_id>> conflicts_;
};

} // namespace fcqss::pn

#endif // FCQSS_PN_STUBBORN_HPP
