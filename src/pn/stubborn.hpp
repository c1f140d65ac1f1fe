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
// and neither are liveness or other temporal properties.
//
// reduction_kind::ltl_x expands the same per-state sets and relies on two
// more conditions, so transition liveness stays exact too:
//
//   (key)  every stubborn set is built by D2-closing an *enabled* seed, so
//          every enabled member is a key transition: the transitions that
//          could consume from its input places are all inside S, hence no
//          firing sequence outside S can ever disable it.  This holds by
//          construction under both reductions (reduce() guarantees it).
//   (no ignoring)  in every cycle-capable SCC of the reduced graph, every
//          transition enabled somewhere in the SCC fires *from* some state
//          of the SCC (Varpaaniemi's "t occurs in C"; the successor may
//          leave the SCC — every member still reaches the firing state
//          inside C, which is exactly what fireability preservation
//          needs).  This is not a per-state rule: the engines enforce it
//          with a deterministic post-pass over the finished reduced graph
//          (detail::enforce_nonignoring in pn/state_space.hpp) that fully
//          expands one state per offending SCC and re-explores
//          incrementally.  Note the condition is per-SCC, not per-path: it
//          guarantees t stays *fireable* from every explored state, not
//          that every infinite run eventually fires t.
//
// Neither reduction has a visibility condition, so neither preserves
// anything over place counts (bounds, reachability of a marking).
// Karp–Miller (pn/coverability.hpp) decides boundedness exactly.
//
// Both per-state rules are precomputed once per net from the incidence data
// (the conflict relation is the same consumer index behind the engines'
// incremental enabled sets); the per-state closure is a deterministic
// function of the marking alone, which keeps the parallel engine's
// bit-identical-at-any-thread-count guarantee intact — the ignoring
// post-pass is sequential and runs on the (already identical) leveled
// graph, so the guarantee survives ltl_x too.
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
    /// Stubborn sets under D1/D2 only.  Preserves has-deadlock and the set
    /// of reachable dead markings; does NOT preserve the reachability set,
    /// liveness, or any other temporal property.
    deadlock,
    /// The deadlock reducer plus the SCC-local "no transition ignored
    /// forever" post-pass.  Additionally preserves transition liveness
    /// (every transition's fireability from every explored state — what
    /// check_live needs); nothing over places.  Full trace-level LTL-X model
    /// checking would need visibility conditions and a stronger per-cycle
    /// proviso than the per-SCC one enforced here.
    ltl_x,
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
