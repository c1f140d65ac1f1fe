#include "pn/parallel_explore.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "exec/chunk_pager.hpp"
#include "exec/executor.hpp"
#include "obs/obs.hpp"

// Determinism
// -----------
// The explorer is level-synchronous: every BFS level runs as a fixed phase
// sequence with barriers (the executor's for_each_index) in between, and
// every phase runs on the pool.
//
//   A  expand    parallel over contiguous frontier chunks: compute each
//                successor's Zobrist hash read-only from the parent's token
//                row and the firing's sparse delta list, and route a
//                candidate (hash, parent, transition) to the shard owning
//                the hash prefix through per-(chunk, shard) outboxes — no
//                shared mutable state and no token copies at all.  The
//                chunk also lists its candidates in (parent id, expansion
//                order) in `refs`: the sequential engine's discovery order.
//                Every successor count the delta raises is at hand for the
//                hash anyway, so each chunk also records the largest one.
//   W  widen     only when some candidate's count does not fit the run's
//                count width: the result store, the run's only row store,
//                is re-encoded at the wider width.  The shards' level
//                buffers are dead between phases E and B (phase B refills
//                them from scratch), so nothing else holds a row; no row
//                pointer survives from phase A into phase B, and phases B
//                and E dispatch on the width afresh, so every row compares
//                and copies bytewise.
//   B  dedup     parallel over shards: each owner drains the outboxes
//                aimed at it and resolves candidates against its dedup
//                index, which holds hashes and ids but no rows.  A local id
//                from an earlier level compares against the result store's
//                row at its global id; one interned this level compares
//                against the shard's level buffer, where the insertion
//                reconstructed the tokens from (parent row + firing
//                delta).  Equality is a delta-aware compare of (parent row
//                + firing delta) against the stored row, so a candidate's
//                counts are never materialized anywhere else.  A local id
//                below the level whose global id is invalid was interned
//                at the level where the state budget bound and not kept:
//                it has no row anywhere and compares unequal, which cannot
//                change the graph, since from that level on nothing is
//                interned and the candidate resolves invalid either way.
//                The candidate that interns a fresh marking is flagged, and
//                each outbox counts its flags.  Doomed fresh candidates
//                (the flood at a budget-crossing level) cost one table
//                probe each, exactly like the sequential engine's failed
//                interns: each shard stops interning after `available`
//                fresh markings, because a candidate whose shard-local
//                discovery rank is past the global budget remainder cannot
//                win globally either.
//   C  renumber  parallel over expansion chunks.  A prefix sum over the
//                per-chunk fresh counts gives each chunk a rank base; the
//                chunk then walks `refs` and hands its flagged candidates
//                ranks base, base + 1, ...  That rank is the sequential
//                discovery rank: expansion chunks are ascending parent-id
//                ranges and `refs` is in discovery order, all candidates of
//                one marking share a hash and so a shard, and every shard
//                drains its outboxes in ascending chunk order — so the flag
//                sits on the first candidate, in discovery order, that
//                reaches the marking, and the flagged candidates ahead of
//                it are exactly the fresh markings discovered before it.
//                A marking the budget stopped a shard from interning is
//                preceded by `available` flagged ones from that shard, so
//                every rank below `available` is exact.  Global id = level
//                end + rank; ranks at or past `available` keep an invalid
//                global id forever, exactly like a failed intern in the
//                sequential engine.  Ids are therefore the sequential
//                engine's at any thread count.
//   D  edges     two passes, parallel over expansion chunks.  The first
//                resolves each candidate to its global id and counts the
//                chunk's kept edges; after a prefix sum over chunks, the
//                second writes each chunk's CSR rows and offsets into its
//                own slice of the edge array, in parent id order.  The edge
//                and offset arrays are grow_arrays: growing them between
//                the passes neither zero-fills nor copies, so each chunk
//                first-touches its own slice.  Candidates resolving to an
//                invalid global id are dropped and flagged as truncation.
//   E  publish   parallel over the next frontier: each kept state's token
//                row is copied from its shard's level buffer, and its hash
//                from the shard index, into the *result* store (grown by
//                whole levels, so ids are final and earlier rows never
//                move); that copy is the row's only one.  Its enabled set
//                is merged incrementally from
//                its discovering parent's set (detail::merge_enabled) onto
//                the end of its publish chunk's flat buffer; each state
//                keeps a span into that buffer.  Two buffer sets alternate
//                between levels, so the parents' spans stay valid while the
//                children's sets are built.
//                Phases A and B of the next level read parent and stored
//                rows straight from the result store — safe because the
//                only writes to it happen here (and in phase W), behind
//                barriers, to slots no other phase reads yet.  This doubles
//                as the output assembly: when the loop ends, the result
//                store already holds every state in global id order, the
//                CSR arrays every edge, and only the lookup table remains
//                to be built (finish_bulk_build), after the shard indexes
//                are freed.
//
// Small frontiers skip the thread pool entirely (run_indexed): the same
// phases run inline with one chunk, so a deep, narrow graph — a 10k-level
// pipeline chain, say — degenerates to the sequential engine plus
// bookkeeping instead of paying six barriers per level.
//
// Because every cross-thread effect is separated by a barrier and every
// order-sensitive step runs on deterministic keys, the result is
// bit-identical to explore_state_space() at any thread count, truncation
// included.  The count width is not part of the result: hashes are over
// the int64 values, and phase A may widen one level earlier than the
// sequential engine when the state budget then rejects the marking that
// asked for it.

namespace fcqss::pn {

namespace {

/// One successor produced in phase A, resolved by its destination shard in
/// phase B.  Tokens are not carried: the resolver rebuilds them on demand
/// from the result-store row of `parent` and the delta list of `via`.
struct candidate {
    std::uint64_t hash;
    state_id parent; ///< global id of the discovering state
    transition_id via;
    /// Local id in the destination shard after phase B (invalid when the
    /// shard's budget refused the marking), global id after phase D's
    /// first pass (invalid when the marking was not kept).
    state_id target = invalid_state;
    /// Set in phase B on the candidate that interned a fresh marking.
    bool fresh = false;
};
static_assert(sizeof(candidate) == 24, "the fresh flag rides in the padding");

/// Handoff buffer for one (expansion chunk, destination shard) pair.
struct outbox {
    std::vector<candidate> cands;
    std::uint32_t fresh = 0; ///< candidates flagged fresh in phase B
};

/// Reference from a parent's ordered successor list into an outbox.
struct edge_ref {
    std::uint32_t shard;
    std::uint32_t index;
};

/// Per-chunk expansion state, reused across levels.
struct chunk_state {
    std::vector<outbox> to_shard;
    std::vector<edge_ref> refs;           ///< per-parent refs, concatenated
    std::vector<std::uint32_t> ref_count; ///< candidates per parent
    /// An over-cap successor (phase A) or a dropped edge (phase D).
    bool truncated = false;
    /// Largest count any routed candidate has in a place its firing
    /// touches; phase W widens the stores when it does not fit.
    std::int64_t raised = 0;
    /// This level's fresh ranks [fresh_begin, fresh_end) (phase C).
    std::size_t fresh_begin = 0;
    std::size_t fresh_end = 0;
    /// Kept edges (phase D's first pass) and where they start in the edge
    /// array (the prefix sum before its second pass).
    std::size_t edge_count = 0;
    std::size_t edge_begin = 0;
    /// Decoded parent row for the stubborn closure, which reads int64s.
    std::vector<std::int64_t> decoded;
    /// Stubborn-set scratch; chunks are single-owner per barrier phase, so
    /// per-chunk scratch keeps phase A lock-free under reduction too.
    stubborn_workspace stubborn_ws;
    std::vector<transition_id> reduced;
};

/// A fresh marking kept this level, at its global rank: the edge that
/// discovered it and the shard whose level buffer phase E copies its row
/// from.
struct kept_entry {
    state_id parent;
    transition_id via;
    std::uint32_t shard;
    state_id local;
};

/// One publish chunk's enabled sets, packed back to back in state order.
struct enabled_buffer {
    std::vector<transition_id> sets;
    std::vector<std::size_t> ends; ///< where each state's set ends in `sets`
};

/// One hash-prefix shard: a dedup index over the markings whose hash
/// prefix it owns, holding no rows of its own.  The row of a local id below
/// level_first is the result store's at global_of_local[id] (none when the
/// state budget refused to keep it: an invalid global id); the row of one
/// interned this level waits in level_rows, at id - level_first, until
/// phase E publishes it.
struct shard_state {
    detail::hash_index index;
    std::vector<state_id> global_of_local;
    grow_array<std::byte> level_rows;
    state_id level_first = 0;
    marking_store_stats stats;
};

/// (place, token delta) of one firing, ascending by place; places whose
/// count does not change are omitted.
using delta_list = std::vector<std::pair<std::uint32_t, std::int64_t>>;

/// Per-transition sparse firing deltas, indexed by transition index: phase A
/// hashes each successor from its parent's row with them, and phase B
/// compares and writes candidate rows as (parent row, delta).
std::vector<delta_list> firing_deltas(const petri_net& net)
{
    std::vector<delta_list> deltas(net.transition_count());
    for (transition_id t : net.transitions()) {
        delta_list& list = deltas[t.index()];
        for (const place_weight& in : net.inputs(t)) {
            list.emplace_back(static_cast<std::uint32_t>(in.place.index()),
                              -in.weight);
        }
        for (const place_weight& out : net.outputs(t)) {
            list.emplace_back(static_cast<std::uint32_t>(out.place.index()),
                              out.weight);
        }
        std::sort(list.begin(), list.end());
        // Fold arcs touching the same place into one net delta; drop zeros.
        std::size_t kept = 0;
        for (std::size_t i = 0; i < list.size();) {
            std::int64_t sum = 0;
            const std::uint32_t place = list[i].first;
            for (; i < list.size() && list[i].first == place; ++i) {
                sum += list[i].second;
            }
            if (sum != 0) {
                list[kept++] = {place, sum};
            }
        }
        list.resize(kept);
    }
    return deltas;
}

/// Runs fn(0..count-1) on the pool, or inline when the work is too small to
/// amortize a barrier.  Either path computes the same thing.
template <typename Fn>
void run_indexed(exec::executor& pool, std::size_t count, bool inline_run,
                 const Fn& fn)
{
    if (inline_run) {
        for (std::size_t i = 0; i < count; ++i) {
            fn(i);
        }
    } else {
        pool.for_each_index(count, fn);
    }
}

} // namespace

state_space explore_parallel(const petri_net& net, const reachability_options& options)
{
    obs::span run_span("explore.parallel");
    const std::size_t width = net.place_count();
    const std::int64_t cap = options.max_tokens_per_place;
    const std::size_t threads = exec::resolve_thread_count(options.threads);
    run_span.arg("threads", static_cast<std::int64_t>(threads));

    // 2 x threads shards, so work stays balanced when one shard's frontier
    // slice runs hot, rounded up to a power of two.
    std::size_t shard_count = 2 * threads;
    std::size_t shard_bits = 0;
    while ((std::size_t{1} << shard_bits) < shard_count) {
        ++shard_bits;
    }
    shard_count = std::size_t{1} << shard_bits;
    // Top hash bits pick the shard (there are at least two); low bits index
    // the shard's table, so the two never alias.
    const auto shard_of = [shard_bits](std::uint64_t hash) {
        return static_cast<std::uint32_t>(hash >> (64 - shard_bits));
    };

    exec::executor pool(threads);
    const std::size_t max_chunks = threads * 4;
    // Frontiers smaller than this run inline: six barriers per level are
    // only worth paying when a level carries real work.
    const std::size_t inline_below = std::max<std::size_t>(64, 2 * threads);

    const std::vector<std::vector<transition_id>> affected =
        detail::affected_transitions(net);
    const std::vector<delta_list> deltas = firing_deltas(net);

    // Stubborn-set reduction: phase A expands only the stubborn subset of
    // each frontier state's enabled set.  The subset depends on the marking
    // alone (never on thread/shard/chunk assignment), so the determinism
    // argument below is untouched; full enabled sets are still maintained
    // in phase E for the incremental updates.
    const std::optional<stubborn_reduction> stubborn =
        detail::make_reduction(net, options);

    // One count width for every row of the run, starting at the narrowest
    // that holds the root; phase W raises it.
    const std::vector<std::int64_t>& m0 = net.initial_marking_vector();
    unsigned count_bytes = row_count_bytes(m0.data(), width);
    // The spill pager (null when unlimited): the result store, the run's
    // only row store, draws its arena chunks from it.
    const auto pager = options.max_bytes == 0
                           ? nullptr
                           : std::make_shared<exec::chunk_pager>(options.max_bytes);
    std::vector<shard_state> shards(shard_count);
    std::vector<chunk_state> chunks(max_chunks);
    for (chunk_state& chunk : chunks) {
        chunk.to_shard.resize(shard_count);
    }

    state_space result;
    marking_store& rstore = detail::space_access::store(result);
    grow_array<state_space_edge>& redges = detail::space_access::edges(result);
    grow_array<std::size_t>& roffsets = detail::space_access::edge_offsets(result);
    rstore = marking_store(width, pager, count_bytes);
    roffsets.push_back(0);
    bool truncated = false;

    // Global id 0 is the root: published into the result store immediately
    // (phases A/B read rows from there) and indexed by its shard for
    // deduplication.
    const std::uint64_t root_hash = marking_store::hash_tokens(m0.data(), width);
    rstore.start_bulk_build(1);
    with_count_type(count_bytes, [&]<typename T>(T) {
        T* row = detail::row_access::bulk_row<T>(rstore, 0);
        for (std::size_t place = 0; place < width; ++place) {
            row[place] = static_cast<T>(m0[place]);
        }
    });
    rstore.set_bulk_hash(0, root_hash);
    {
        shard_state& shard = shards[shard_of(root_hash)];
        const std::size_t slot =
            shard.index.probe(root_hash, [](state_id) { return false; }, shard.stats.probes)
                .first;
        shard.index.insert(slot, root_hash);
        ++shard.stats.inserts;
        shard.global_of_local.push_back(0);
    }
    std::size_t state_count = 1;

    // See explore_state_space: the root is taken as given; when it already
    // exceeds the token cap somewhere, its successors get a full-vector scan.
    bool root_over_cap = false;
    for (std::int64_t count : m0) {
        if (count > cap) {
            root_over_cap = true;
            break;
        }
    }

    // Enabled sets of the current frontier, then of the next one: one span
    // per state into flat per-publish-chunk buffers.  Each level fills the
    // buffer set its parents' spans do not point into.  The root's set is
    // the one full scan.
    std::array<std::vector<enabled_buffer>, 2> enabled_buffers;
    for (std::vector<enabled_buffer>& buffers : enabled_buffers) {
        buffers.resize(max_chunks);
    }
    std::size_t next_buffers = 1;
    for (transition_id t : net.transitions()) {
        if (detail::enabled_in(net, m0.data(), t)) {
            enabled_buffers[0][0].sets.push_back(t);
        }
    }
    std::vector<std::span<const transition_id>> cur_enabled{enabled_buffers[0][0].sets};
    std::vector<std::span<const transition_id>> next_enabled;
    std::vector<kept_entry> kept; ///< this level's kept fresh states, by rank

    // Telemetry tallies, accumulated in locals and flushed at level / run
    // boundaries so the phase loops never touch an atomic (obs/obs.hpp).
    // States and edges flush per level: a concurrent snapshot() sees them
    // grow monotonically while the run is in flight.
    std::uint64_t obs_phase_a_ns = 0;
    std::uint64_t obs_phase_w_ns = 0;
    std::uint64_t obs_phase_b_ns = 0;
    std::uint64_t obs_phase_c_ns = 0;
    std::uint64_t obs_phase_d_ns = 0;
    std::uint64_t obs_phase_e_ns = 0;
    std::uint64_t obs_levels = 0;
    std::uint64_t obs_inline_levels = 0;
    std::uint64_t obs_candidates = 0;
    std::size_t obs_flushed_states = 0;
    std::size_t obs_flushed_edges = 0;
    const auto flush_progress = [&] {
        if (!obs::stats_enabled()) {
            return;
        }
        static obs::counter& states_counter = obs::get_counter("pn.explore.states");
        static obs::counter& edges_counter = obs::get_counter("pn.explore.edges");
        states_counter.add(rstore.size() - obs_flushed_states);
        edges_counter.add(redges.size() - obs_flushed_edges);
        obs_flushed_states = rstore.size();
        obs_flushed_edges = redges.size();
    };

    std::size_t level_begin = 0;
    std::size_t level_end = 1;
    while (level_begin < level_end) {
        const std::size_t frontier = level_end - level_begin;
        const bool inline_run = frontier < inline_below;
        const std::size_t chunk_count =
            inline_run ? 1 : std::min(frontier, max_chunks);
        const auto chunk_range = [&](std::size_t c) {
            return std::pair{level_begin + frontier * c / chunk_count,
                             level_begin + frontier * (c + 1) / chunk_count};
        };
        // Budget remainder before this level's fresh markings are counted;
        // phases B and C both key off it.
        const std::size_t available =
            state_count >= options.max_markings ? 0 : options.max_markings - state_count;

        ++obs_levels;
        obs_inline_levels += inline_run ? 1 : 0;
        const bool obs_timing = obs::stats_enabled();

        // Phase A: expand the frontier into per-(chunk, shard) outboxes.
        const std::uint64_t obs_a_begin = obs_timing ? obs::now_ns() : 0;
        with_count_type(count_bytes, [&]<typename T>(T) {
            run_indexed(pool, chunk_count, inline_run, [&](std::size_t c) {
                obs::span phase_span("phase.expand", "chunk",
                                     static_cast<std::int64_t>(c));
                chunk_state& chunk = chunks[c];
                for (outbox& ob : chunk.to_shard) {
                    ob.cands.clear();
                }
                chunk.refs.clear();
                chunk.ref_count.clear();
                chunk.truncated = false;
                chunk.raised = 0;

                const auto [begin, end] = chunk_range(c);
                for (std::size_t p = begin; p < end; ++p) {
                    const T* row =
                        detail::row_access::row<T>(rstore, static_cast<state_id>(p));
                    const std::uint64_t row_hash =
                        rstore.stored_hash(static_cast<state_id>(p));
                    const bool full_cap_scan = root_over_cap && p == 0;

                    std::span<const transition_id> expand = cur_enabled[p - level_begin];
                    if (stubborn) {
                        chunk.decoded.assign(row, row + width);
                        stubborn->reduce(chunk.decoded.data(), expand,
                                         chunk.stubborn_ws, chunk.reduced);
                        expand = chunk.reduced;
                    }
                    std::uint32_t emitted = 0;
                    for (transition_id t : expand) {
                        std::uint64_t next_hash = row_hash;
                        bool over_cap = false;
                        std::int64_t raised = 0;
                        const delta_list& delta = deltas[t.index()];
                        for (const auto& [place, d] : delta) {
                            const auto now = static_cast<std::int64_t>(row[place]);
                            const std::int64_t then = now + d;
                            next_hash ^= marking_store::component_mix(place, now) ^
                                         marking_store::component_mix(place, then);
                            over_cap |= d > 0 && then > cap;
                            raised = std::max(raised, then);
                        }
                        if (full_cap_scan && !over_cap) {
                            // Over-cap root counts stay over cap unless lowered.
                            std::size_t at = 0;
                            for (std::size_t place = 0; place < width; ++place) {
                                auto then = static_cast<std::int64_t>(row[place]);
                                if (at < delta.size() && delta[at].first == place) {
                                    then += delta[at++].second;
                                }
                                if (then > cap) {
                                    over_cap = true;
                                    break;
                                }
                            }
                        }

                        if (over_cap) {
                            chunk.truncated = true;
                        } else {
                            const std::uint32_t dest = shard_of(next_hash);
                            outbox& ob = chunk.to_shard[dest];
                            ob.cands.push_back({next_hash, static_cast<state_id>(p), t});
                            chunk.refs.push_back(
                                {dest, static_cast<std::uint32_t>(ob.cands.size() - 1)});
                            chunk.raised = std::max(chunk.raised, raised);
                            ++emitted;
                        }
                    }
                    chunk.ref_count.push_back(emitted);
                }
                phase_span.arg("candidates",
                               static_cast<std::int64_t>(chunk.refs.size()));
            });
        });
        if (obs_timing) {
            obs_phase_a_ns += obs::now_ns() - obs_a_begin;
            for (std::size_t c = 0; c < chunk_count; ++c) {
                obs_candidates += chunks[c].refs.size();
            }
        }

        // Phase W: widen the result store when a routed candidate does not
        // fit.
        std::int64_t raised = 0;
        for (std::size_t c = 0; c < chunk_count; ++c) {
            raised = std::max(raised, chunks[c].raised);
        }
        if (const unsigned needed = count_bytes_for(raised); needed > count_bytes) {
            const std::uint64_t obs_w_begin = obs_timing ? obs::now_ns() : 0;
            count_bytes = needed;
            rstore.widen(count_bytes);
            if (obs_timing) {
                obs_phase_w_ns += obs::now_ns() - obs_w_begin;
            }
        }

        // Phase B: every shard drains its inboxes, in ascending chunk order,
        // and resolves candidates, flagging the ones that intern.
        const std::uint64_t obs_b_begin = obs_timing ? obs::now_ns() : 0;
        with_count_type(count_bytes, [&]<typename T>(T) {
            const std::size_t row_bytes = width * sizeof(T);
            run_indexed(pool, shard_count, inline_run, [&](std::size_t s) {
                obs::span phase_span("phase.dedup", "shard",
                                     static_cast<std::int64_t>(s));
                shard_state& shard = shards[s];
                shard.level_first = static_cast<state_id>(shard.index.size());
                shard.level_rows.clear();
                // Fresh markings past the budget remainder cannot be kept
                // (the shard-local discovery rank is a lower bound on the
                // global one), so stop interning there and let them resolve
                // invalid.
                const std::size_t intern_limit = shard.level_first + available;
                const auto stored_row = [&](state_id local) -> const T* {
                    if (local >= shard.level_first) {
                        return reinterpret_cast<const T*>(
                            shard.level_rows.data() + (local - shard.level_first) * row_bytes);
                    }
                    const state_id global = shard.global_of_local[local];
                    return global == invalid_state
                               ? nullptr
                               : detail::row_access::row<T>(rstore, global);
                };
                for (std::size_t c = 0; c < chunk_count; ++c) {
                    outbox& ob = chunks[c].to_shard[s];
                    ob.fresh = 0;
                    for (candidate& cand : ob.cands) {
                        const T* row = detail::row_access::row<T>(rstore, cand.parent);
                        const delta_list& delta = deltas[cand.via.index()];
                        // stored == row + delta, compared as memcmp runs
                        // between the (few) delta places so the common long
                        // stretches stay vectorized.
                        const auto equals = [&](state_id local) {
                            const T* stored = stored_row(local);
                            if (stored == nullptr) {
                                return false;
                            }
                            std::size_t prev = 0;
                            for (const auto& [place, d] : delta) {
                                if (std::memcmp(stored + prev, row + prev,
                                                (place - prev) * sizeof(T)) != 0) {
                                    return false;
                                }
                                if (static_cast<std::int64_t>(stored[place]) !=
                                    static_cast<std::int64_t>(row[place]) + d) {
                                    return false;
                                }
                                prev = place + 1;
                            }
                            return std::memcmp(stored + prev, row + prev,
                                               (width - prev) * sizeof(T)) == 0;
                        };
                        const auto [slot, local] =
                            shard.index.probe(cand.hash, equals, shard.stats.probes);
                        if (local != invalid_state) {
                            ++shard.stats.dedup_hits;
                            cand.target = local;
                            continue;
                        }
                        if (shard.index.size() >= intern_limit) {
                            ++shard.stats.budget_rejects;
                            continue;
                        }
                        ++shard.stats.inserts;
                        cand.target = static_cast<state_id>(shard.index.size());
                        if (shard.index.insert(slot, cand.hash)) {
                            ++shard.stats.resizes;
                        }
                        // The fresh row: (parent row + firing delta), built
                        // straight into the level buffer.
                        const std::size_t at = shard.level_rows.size();
                        shard.level_rows.resize_for_overwrite(at + row_bytes);
                        T* fresh = reinterpret_cast<T*>(shard.level_rows.data() + at);
                        std::memcpy(fresh, row, row_bytes);
                        for (const auto& [place, d] : delta) {
                            fresh[place] =
                                static_cast<T>(static_cast<std::int64_t>(row[place]) + d);
                        }
                        cand.fresh = true;
                        ++ob.fresh;
                        shard.global_of_local.push_back(invalid_state);
                    }
                }
                phase_span.arg("fresh", static_cast<std::int64_t>(shard.index.size() -
                                                                  shard.level_first));
            });
        });
        if (obs_timing) {
            obs_phase_b_ns += obs::now_ns() - obs_b_begin;
        }

        // Phase C: rank each chunk's flagged candidates from its prefix-sum
        // base and apply the state budget.
        const std::uint64_t obs_c_begin = obs_timing ? obs::now_ns() : 0;
        std::size_t total_fresh = 0;
        for (std::size_t c = 0; c < chunk_count; ++c) {
            chunks[c].fresh_begin = total_fresh;
            for (const outbox& ob : chunks[c].to_shard) {
                total_fresh += ob.fresh;
            }
            chunks[c].fresh_end = total_fresh;
        }
        const std::size_t keep = std::min(total_fresh, available);
        kept.resize(keep);
        run_indexed(pool, chunk_count, inline_run, [&](std::size_t c) {
            obs::span phase_span("phase.renumber", "chunk", static_cast<std::int64_t>(c));
            const chunk_state& chunk = chunks[c];
            std::size_t rank = chunk.fresh_begin;
            const std::size_t rank_end = std::min(chunk.fresh_end, keep);
            for (auto ref = chunk.refs.begin(); rank < rank_end; ++ref) {
                const candidate& cand = chunk.to_shard[ref->shard].cands[ref->index];
                if (cand.fresh) {
                    shards[ref->shard].global_of_local[cand.target] =
                        static_cast<state_id>(level_end + rank);
                    kept[rank++] = {cand.parent, cand.via, ref->shard, cand.target};
                }
            }
        });
        state_count += keep;
        if (obs_timing) {
            obs_phase_c_ns += obs::now_ns() - obs_c_begin;
        }

        // Phase D: resolve and count each chunk's edges, then write every
        // chunk's CSR rows into its own slice, in parent id order.
        const std::uint64_t obs_d_begin = obs_timing ? obs::now_ns() : 0;
        run_indexed(pool, chunk_count, inline_run, [&](std::size_t c) {
            obs::span phase_span("phase.edges", "chunk", static_cast<std::int64_t>(c));
            chunk_state& chunk = chunks[c];
            chunk.edge_count = 0;
            for (const edge_ref ref : chunk.refs) {
                candidate& cand = chunk.to_shard[ref.shard].cands[ref.index];
                if (cand.target != invalid_state) {
                    cand.target = shards[ref.shard].global_of_local[cand.target];
                }
                if (cand.target == invalid_state) {
                    chunk.truncated = true;
                } else {
                    ++chunk.edge_count;
                }
            }
        });
        std::size_t edge_total = redges.size();
        for (std::size_t c = 0; c < chunk_count; ++c) {
            truncated |= chunks[c].truncated;
            chunks[c].edge_begin = edge_total;
            edge_total += chunks[c].edge_count;
        }
        redges.resize_for_overwrite(edge_total);
        roffsets.resize_for_overwrite(level_end + 1);
        run_indexed(pool, chunk_count, inline_run, [&](std::size_t c) {
            obs::span phase_span("phase.edges", "chunk", static_cast<std::int64_t>(c));
            const chunk_state& chunk = chunks[c];
            const auto [begin, end] = chunk_range(c);
            std::size_t at = chunk.edge_begin;
            auto ref = chunk.refs.begin();
            for (std::size_t p = begin; p < end; ++p) {
                for (std::uint32_t r = 0; r < chunk.ref_count[p - begin]; ++r, ++ref) {
                    const candidate& cand = chunk.to_shard[ref->shard].cands[ref->index];
                    if (cand.target != invalid_state) {
                        redges[at++] = {cand.via, cand.target};
                    }
                }
                roffsets[p + 1] = at;
            }
        });
        if (obs_timing) {
            obs_phase_d_ns += obs::now_ns() - obs_d_begin;
        }

        // Phase E: publish the kept states into the result store and build
        // their enabled sets.
        next_enabled.resize(keep);
        rstore.grow_bulk_build(state_count);
        const std::uint64_t obs_e_begin = obs_timing ? obs::now_ns() : 0;
        if (keep != 0) {
            const std::size_t publish_chunks =
                inline_run ? 1 : std::min(keep, max_chunks);
            with_count_type(count_bytes, [&]<typename T>(T) {
                const std::size_t row_bytes = width * sizeof(T);
                run_indexed(pool, publish_chunks, inline_run, [&](std::size_t c) {
                    obs::span phase_span("phase.publish", "chunk",
                                         static_cast<std::int64_t>(c));
                    const std::size_t begin = keep * c / publish_chunks;
                    const std::size_t end = keep * (c + 1) / publish_chunks;
                    enabled_buffer& buffer = enabled_buffers[next_buffers][c];
                    buffer.sets.clear();
                    buffer.ends.clear();
                    for (std::size_t i = begin; i < end; ++i) {
                        const kept_entry& entry = kept[i];
                        const state_id gid = static_cast<state_id>(level_end + i);
                        const shard_state& shard = shards[entry.shard];
                        T* row = detail::row_access::bulk_row<T>(rstore, gid);
                        std::memcpy(row,
                                    shard.level_rows.data() +
                                        (entry.local - shard.level_first) * row_bytes,
                                    row_bytes);
                        rstore.set_bulk_hash(gid, shard.index.hash(entry.local));
                        detail::merge_enabled(net,
                                              cur_enabled[entry.parent - level_begin],
                                              affected[entry.via.index()], row,
                                              buffer.sets);
                        buffer.ends.push_back(buffer.sets.size());
                    }
                    // Spans are taken once `sets` has stopped growing.
                    const std::span<const transition_id> sets(buffer.sets);
                    std::size_t from = 0;
                    for (std::size_t i = begin; i < end; ++i) {
                        const std::size_t to = buffer.ends[i - begin];
                        next_enabled[i] = sets.subspan(from, to - from);
                        from = to;
                    }
                });
            });
        }
        if (obs_timing) {
            obs_phase_e_ns += obs::now_ns() - obs_e_begin;
        }
        flush_progress();
        cur_enabled.swap(next_enabled);
        next_buffers ^= 1;
        level_begin = level_end;
        level_end = state_count;
    }

    // The shard indexes have done their work: flush their tallies and free
    // them before the result's lookup table is built.
    if (obs::stats_enabled()) {
        std::size_t shard_total = 0;
        std::size_t shard_max = 0;
        for (std::size_t s = 0; s < shard_count; ++s) {
            const shard_state& shard = shards[s];
            const std::size_t interned = shard.index.size();
            shard_total += interned;
            shard_max = std::max(shard_max, interned);
            obs::get_counter("pn.par.shard." + std::to_string(s) + ".states")
                .add(interned);
            detail::flush_store_obs(shard.stats,
                                    shard.index.memory_bytes() +
                                        shard.global_of_local.size() * sizeof(state_id) +
                                        shard.level_rows.memory_bytes());
        }
        // max-over-mean of the shard index sizes: 1.0 is a perfect hash
        // split, k means the fullest shard holds k times its fair share.
        const double mean = static_cast<double>(shard_total) /
                            static_cast<double>(shard_count);
        obs::get_gauge("pn.par.shard_imbalance", "ratio")
            .set(mean == 0.0 ? 0.0 : static_cast<double>(shard_max) / mean);
    }
    shards.clear();

    // The arena already holds every state in global id order; only the
    // lookup table is left to build.
    const bool obs_table_timing = obs::stats_enabled();
    const std::uint64_t obs_table_begin = obs_table_timing ? obs::now_ns() : 0;
    rstore.finish_bulk_build();
    const std::uint64_t obs_table_ns =
        obs_table_timing ? obs::now_ns() - obs_table_begin : 0;
    detail::space_access::truncated(result) = truncated;

    if (obs::stats_enabled()) {
        obs::get_counter("pn.par.phase_a_ns", "ns").add(obs_phase_a_ns);
        obs::get_counter("pn.par.phase_w_ns", "ns").add(obs_phase_w_ns);
        obs::get_counter("pn.par.phase_b_ns", "ns").add(obs_phase_b_ns);
        obs::get_counter("pn.par.phase_c_ns", "ns").add(obs_phase_c_ns);
        obs::get_counter("pn.par.phase_d_ns", "ns").add(obs_phase_d_ns);
        obs::get_counter("pn.par.phase_e_ns", "ns").add(obs_phase_e_ns);
        obs::get_counter("pn.par.table_ns", "ns").add(obs_table_ns);
        obs::get_counter("pn.explore.levels").add(obs_levels);
        obs::get_counter("pn.explore.inline_levels").add(obs_inline_levels);
        obs::get_counter("pn.par.candidates").add(obs_candidates);
        if (truncated) {
            obs::get_counter("pn.explore.truncations").add(1);
        }
    }

    flush_progress();
    detail::flush_store_obs(rstore);
    if (pager != nullptr) {
        pager->flush_obs();
    }
    run_span.arg("states", static_cast<std::int64_t>(rstore.size()));
    return result;
}

} // namespace fcqss::pn
