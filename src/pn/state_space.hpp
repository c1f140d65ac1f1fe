// fcqss — pn/state_space.hpp
// The shared explicit-state exploration engine behind reachability,
// deadlock, executability and valid-schedule checking.  Markings live in an
// arena-backed marking_store as compact rows (1, 2, 4 or 8 bytes per count,
// widened in place when a count outgrows the width); successor generation
// keeps each state's enabled set incrementally — after firing t only the
// consumers of the places t touched are re-checked (via
// petri_net::consumers), instead of re-scanning every transition — and
// successor hashes are updated Zobrist-style from the parent's hash in
// O(|arcs of t|).  Row pointers stay valid until the next widening; public
// accessors decode: tokens() returns a copy, load() fills a caller buffer.
// One option struct, reachability_options, configures this engine, the
// sharded parallel one (pn/parallel_explore.hpp) and every entry point in
// pn/reachability.hpp.
#ifndef FCQSS_PN_STATE_SPACE_HPP
#define FCQSS_PN_STATE_SPACE_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "base/grow_array.hpp"
#include "pn/firing.hpp"
#include "pn/marking.hpp"
#include "pn/marking_store.hpp"
#include "pn/petri_net.hpp"
#include "pn/stubborn.hpp"

namespace fcqss::pn {

struct state_space_edge;
class state_space;

/// The one option struct of explicit exploration: budgets, threading and
/// partial-order reduction for explore_state_space, explore_parallel and
/// the reachability entry points built on them (pn/reachability.hpp).
struct reachability_options {
    /// State budget: the first max_markings states in BFS discovery order
    /// are kept; dropping a successor past it marks the space truncated.
    std::size_t max_markings = 100000;
    /// Token cap: a successor with a count above it in some place is
    /// dropped (the net is unbounded there) and marks the space truncated.
    std::int64_t max_tokens_per_place = 1 << 20;
    /// Soft ceiling on resident arena bytes; 0 = unlimited (heap arena).
    /// Non-zero routes every arena chunk of the run's result store (the
    /// only store with rows: the parallel engine's shards keep none)
    /// through one exec::chunk_pager backed by an mmap'd spill file,
    /// evicting cold chunks past the budget.  The explored graph is
    /// bit-identical either way — only residency changes.
    std::size_t max_bytes = 0;
    /// Worker threads.  explore_space() and explore() run the sequential
    /// engine at 1 and the sharded parallel engine otherwise;
    /// explore_parallel() takes the value literally (0 = hardware
    /// concurrency, 1 = the sharded engine on one worker);
    /// explore_state_space() ignores it.  Results are bit-identical at any
    /// value.
    std::size_t threads = 1;
    /// Per-state partial-order reduction (pn/stubborn.hpp).  `deadlock`
    /// applies the stubborn D1/D2 rules only: has-deadlock and the set of
    /// reachable dead markings match the full graph (exactly, when neither
    /// run is truncated).  `ltl_x` adds the SCC-local "no transition ignored
    /// forever" post-pass, so transition liveness is preserved too.  Nothing
    /// over places is preserved — keep `none` for is_reachable /
    /// shortest_path / place_bounds-style queries.
    reduction_kind reduction = reduction_kind::none;
};

namespace detail {

/// True when `tokens` (length |P|) enables t.  Count is the storage type of
/// the row (std::int64_t for a decoded vector, or an encoded marking_store
/// row type); instantiated for the four with_count_type types.
template <typename Count>
[[nodiscard]] bool enabled_in(const petri_net& net, const Count* tokens, transition_id t);

/// affected[t]: the transitions whose enabledness can change when t fires —
/// the consumers of every place t consumes from or produces into.  Both
/// engines drive their incremental enabled-set updates off this table.
[[nodiscard]] std::vector<std::vector<transition_id>>
affected_transitions(const petri_net& net);

/// The incremental enabled-set step shared by both engines: the successor's
/// enabled set is the parent's (`parent_enabled`, ascending) with the
/// members of `recheck` (ascending) re-tested against the successor tokens.
/// The result is appended to `out`, ascending, so a caller can pack many
/// sets into one flat buffer.  Count as in enabled_in.
template <typename Count>
void merge_enabled(const petri_net& net, std::span<const transition_id> parent_enabled,
                   std::span<const transition_id> recheck, const Count* tokens,
                   std::vector<transition_id>& out);

/// The per-state stubborn reducer both engines apply for
/// `options.reduction`, or nullopt under `none`.  `deadlock` and `ltl_x`
/// share one reducer; only ltl_x runs enforce_nonignoring after it.
[[nodiscard]] std::optional<stubborn_reduction>
make_reduction(const petri_net& net, const reachability_options& options);

/// The ltl_x "no transition ignored forever" post-pass shared by both
/// engines: over the finished reduced graph, every SCC that can sustain a
/// cycle (two or more states, or a self-loop) and ignores a transition —
/// enabled at some member state but fired from none — gets its smallest
/// such state fully expanded; freshly discovered states are then explored
/// with the normal per-state reduction, and the check repeats until no SCC
/// ignores anything.  Every successor is interned as soon as it is fired,
/// in (state id, transition id) order, so the pass is deterministic in
/// (net, reduction, space, options) alone and running it after either
/// engine keeps the bit-identical-at-any-thread-count guarantee.  Budgets
/// are respected exactly like in-engine expansion (dropped successors mark
/// the space truncated).
void enforce_nonignoring(const petri_net& net, const stubborn_reduction& reduction,
                         state_space& space, const reachability_options& options);

/// Adds dedup-work tallies (probes, dedup hits, inserts, budget rejects,
/// table resizes, widenings) and `bytes` of footprint to the global
/// pn.store.* obs counters.  No-op when stats are off.  The parallel engine
/// calls this once per shard index at the end of a run — stores and shards
/// count with plain members so the hot probe loop never touches an atomic.
void flush_store_obs(const marking_store_stats& stats, std::size_t bytes);

/// flush_store_obs of a whole store: its tallies and memory_bytes(), plus
/// its arena chunk count (pn.store.chunks); raises the pn.store.count_bytes
/// gauge to the store's count width.  Both engines call this once for the
/// result store at the end of a run.
void flush_store_obs(const marking_store& store);

/// Private-member access for the exploration engines in parallel_explore.cpp
/// (which live in an anonymous namespace and so cannot be friends by name).
struct space_access {
    [[nodiscard]] static marking_store& store(state_space& space);
    [[nodiscard]] static grow_array<state_space_edge>& edges(state_space& space);
    [[nodiscard]] static grow_array<std::size_t>& edge_offsets(state_space& space);
    [[nodiscard]] static bool& truncated(state_space& space);
};

} // namespace detail

/// One outgoing edge of a state: the transition fired and the successor.
struct state_space_edge {
    transition_id via;
    state_id to;

    friend bool operator==(const state_space_edge&, const state_space_edge&) = default;
};

/// The explored fragment of the reachability graph in compact form: interned
/// states plus a CSR edge list (states are expanded in discovery order, so
/// edges of state s occupy one contiguous run).
class state_space {
public:
    [[nodiscard]] const marking_store& store() const noexcept { return store_; }
    [[nodiscard]] std::size_t state_count() const noexcept { return store_.size(); }
    [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }
    /// True when a budget stopped exploration; "for all reachable markings"
    /// verdicts then only hold for the explored region.
    [[nodiscard]] bool truncated() const noexcept { return truncated_; }

    /// Token counts of state s, decoded into a fresh vector.
    [[nodiscard]] std::vector<std::int64_t> tokens(state_id s) const
    {
        return store_.tokens(s);
    }
    /// Decodes the token counts of s into out[0, |P|): the allocation-free
    /// form of tokens() for loops over every state.
    void load(state_id s, std::int64_t* out) const noexcept { store_.load(s, out); }
    /// Outgoing edges of s, ascending by transition id.
    [[nodiscard]] std::span<const state_space_edge> successors(state_id s) const noexcept
    {
        return {edges_.data() + edge_offsets_[s],
                edge_offsets_[s + 1] - edge_offsets_[s]};
    }

    /// Materializes state s as a marking object.
    [[nodiscard]] marking marking_of(state_id s) const;

private:
    friend state_space explore_state_space(const petri_net& net,
                                           const reachability_options& options);
    friend void detail::enforce_nonignoring(const petri_net& net,
                                            const stubborn_reduction& reduction,
                                            state_space& space,
                                            const reachability_options& options);
    friend struct detail::space_access;

    marking_store store_{0};
    /// The CSR edge list and its offsets: size state_count()+1, successors
    /// of s are edges_[offsets[s]..offsets[s+1]).  grow_array, so the
    /// parallel engine's per-level growth neither zero-fills nor copies
    /// them and its chunk writers first-touch each new slice.
    grow_array<state_space_edge> edges_;
    grow_array<std::size_t> edge_offsets_;
    bool truncated_ = false;
};

/// Breadth-first exploration from the net's initial marking.  Visits exactly
/// the states and edges of the naive reference exploration (reachability.cpp
/// explore_reference), in the same order.  options.threads is ignored.
[[nodiscard]] state_space explore_state_space(const petri_net& net,
                                              const reachability_options& options = {});

/// A reusable token-game runner over a dense token vector: one allocation
/// per game, checked enabling, unchecked firing (pn::fire_unchecked).  The
/// schedule-replay loops (qss executability / validity) use this instead of
/// marking objects to avoid per-step allocation and double enabledness
/// checks.
class token_game {
public:
    explicit token_game(const petri_net& net);

    /// Resets the tokens to the net's initial marking.
    void reset();

    [[nodiscard]] bool enabled(transition_id t) const;
    /// Fires t when enabled; returns whether it fired.
    bool try_fire(transition_id t);
    /// Fires the whole sequence; returns the first failing position, or
    /// nullopt when every transition fired.
    std::optional<std::size_t> run(const firing_sequence& sequence);

    /// True when the current tokens equal the initial marking.
    [[nodiscard]] bool at_initial() const;
    [[nodiscard]] const std::vector<std::int64_t>& tokens() const noexcept
    {
        return tokens_;
    }

private:
    const petri_net* net_;
    std::vector<std::int64_t> tokens_;
};

} // namespace fcqss::pn

#endif // FCQSS_PN_STATE_SPACE_HPP
