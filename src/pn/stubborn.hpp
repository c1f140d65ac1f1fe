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
// reduction_kind::ltl_x layers the classical extra conditions on top,
// so liveness and stutter-invariant reachability queries stay exact too:
//
//   (key)  every stubborn set is built by D2-closing an *enabled* seed, so
//          every enabled member is a key transition: the transitions that
//          could consume from its input places are all inside S, hence no
//          firing sequence outside S can ever disable it.  This holds by
//          construction under both reductions (reduce() guarantees it).
//   (V)    visibility: if S contains an enabled transition that changes the
//          token count of an observed place, S contains every such
//          "visible" transition — visible firings are never reordered past
//          each other, only stuttered.
//   (I)    when an invisible enabled transition exists, the chosen set
//          contains one (seeds are restricted to invisible transitions), so
//          the reduction never forces visible progress it could stutter.
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
    /// D1/D2 plus visibility (V/I over the observed places) and the
    /// SCC-local "no transition ignored forever" post-pass.  Additionally
    /// preserves transition liveness (every transition's fireability from
    /// every explored state) and stutter-invariant *reachability* queries
    /// over the observed places ("some reachable marking satisfies φ", the
    /// EF fragment of LTL-X — what check_live / check_k_bounded_explicit
    /// need).  Full trace-level LTL-X model checking would need a stronger
    /// per-cycle proviso than the per-SCC one enforced here.
    ltl_x,
};

/// Places some firing can *grow*: those where at least one transition has a
/// positive folded net delta (outputs minus inputs), ascending.  A place no
/// transition grows can never exceed its count in the initial marking, so
/// boundedness queries need only observe the growable places — and each
/// per-place EF query stays exact observing just *its* place, the weakest
/// visibility set, which is how check_k_bounded_explicit keeps the ltl_x
/// reduction effective: it explores once per growable place instead of once
/// with every growable place visible.
[[nodiscard]] std::vector<place_id> growable_places(const petri_net& net);

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
/// the conflict relation and the visibility set; reduce() is const and safe
/// to call concurrently with per-thread workspaces.
class stubborn_reduction {
public:
    /// `observed_places` is the visibility set: transitions whose firing
    /// changes the token count of an observed place are *visible* and
    /// subject to conditions V and I.  Empty — the right choice for
    /// deadlock and liveness queries — makes every transition invisible,
    /// which is the D1/D2-only reducer of reduction_kind::deadlock.
    explicit stubborn_reduction(const petri_net& net,
                                std::span<const place_id> observed_places = {});

    /// True when t changes the token count of an observed place (always
    /// false with no observed places).
    [[nodiscard]] bool visible(transition_id t) const noexcept
    {
        return !visible_.empty() && visible_[t.index()] != 0;
    }

    /// Computes the stubborn subset of `enabled` (the exact enabled set of
    /// `tokens`, ascending) to expand at this marking.  Writes the subset to
    /// `out`, ascending; `out` always contains at least one transition when
    /// `enabled` is non-empty, and equals `enabled` when no reduction
    /// applies.  Deterministic in (tokens, enabled) only.
    void reduce(const std::int64_t* tokens, std::span<const transition_id> enabled,
                stubborn_workspace& ws, std::vector<transition_id>& out) const;

private:
    /// Closes over {seed} under D1/D2 (plus V when places are observed) at
    /// `tokens`, marking members in ws.in_set / ws.members.  Returns the
    /// number of enabled members, or `bail_out` as soon as that many are
    /// seen (the caller already has a set this small, so the rest of the
    /// closure cannot matter).
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
    /// visible_[t] != 0 when t changes an observed place; empty when nothing
    /// is observed, so visible() is O(1) either way.
    std::vector<std::uint8_t> visible_;
    /// The visible transitions, ascending — condition V pulls this whole
    /// list into any set holding an enabled visible member.
    std::vector<transition_id> visible_list_;
};

} // namespace fcqss::pn

#endif // FCQSS_PN_STUBBORN_HPP
