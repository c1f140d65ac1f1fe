#include "pn/parallel_explore.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "exec/chunk_pager.hpp"
#include "exec/executor.hpp"
#include "exec/shard_queues.hpp"
#include "obs/obs.hpp"

// Determinism
// -----------
// The explorer is level-synchronous: every BFS level runs as a fixed phase
// sequence with barriers (the executor's for_each_index) in between.
//
//   A  expand    parallel over contiguous frontier chunks: compute each
//                successor's Zobrist hash read-only from the parent's token
//                row and the firing's sparse delta list, and route a
//                16-byte candidate (hash, parent, transition) to the shard
//                owning the hash prefix through per-(chunk, shard) outboxes
//                — no shared mutable state and no token copies at all.
//                Every successor count the delta raises is at hand for the
//                hash anyway, so each chunk also records the largest one.
//   W  widen     only when some candidate's count does not fit the run's
//                count width: every store — result and shards — is
//                re-encoded at the wider width, one store per task.  No row
//                pointer survives from phase A into phase B, and phases B
//                and E dispatch on the width afresh, so all stores always
//                share one width and rows compare and copy bytewise.
//   B  dedup     parallel over shards: each owner drains the outboxes
//                aimed at it and resolves candidates against its private
//                store with marking_store::intern_with — equality against a
//                stored vector is a delta-aware compare of (parent row +
//                firing delta), and an accepted insertion reconstructs the
//                tokens straight into the arena slot, so a candidate's
//                counts are never materialized anywhere else.  Doomed
//                fresh candidates (the flood at a budget-crossing level)
//                cost one table probe each, exactly like the sequential
//                engine's failed interns: each shard stops interning after
//                `available` fresh markings, because a candidate whose
//                shard-local discovery rank is past the global budget
//                remainder cannot win globally either.  Chunks are drained
//                in ascending order, and chunk ranges / per-parent
//                successor lists are themselves ascending, so each shard
//                meets candidates in ascending (parent id, transition id)
//                order — the first occurrence of a fresh marking is its
//                sequential discovery edge, and the shard's fresh list ends
//                up sorted by that key.
//   C  renumber  sequential, cheap: k-way-merge the shards' fresh lists by
//                (parent id, transition id) and hand out global ids in that
//                order.  This is sequential BFS discovery order, so ids are
//                independent of the thread/shard count and equal to the
//                sequential engine's.  Fresh markings beyond the budget
//                keep an invalid global id forever, exactly like a failed
//                intern in the sequential engine.
//   D  edges     sequential append of this level's CSR rows in parent id
//                order; candidates resolving to an invalid global id are
//                dropped and flagged as truncation.
//   E  publish   parallel over the next frontier: each kept state's token
//                row and hash are written into the *result* store (grown by
//                whole levels, so ids are final and earlier rows never
//                move), and its enabled set is merged incrementally from
//                its discovering parent's set (detail::merge_enabled).
//                Phases A and B of the next level read parent rows straight
//                from the result store — safe because the only writes to it
//                happen here, behind barriers, to slots no other phase
//                reads yet.  This doubles as the output assembly: when the
//                loop ends, the result store already holds every state in
//                global id order and only the lookup table remains to be
//                built (finish_bulk_build).
//
// Small frontiers skip the thread pool entirely (run_indexed): a deep,
// narrow graph — a 10k-level pipeline chain, say — degenerates to the
// sequential engine plus bookkeeping instead of paying three barriers per
// level.
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
    state_id resolved = invalid_state; ///< local id in the destination shard
};

/// Handoff buffer for one (expansion chunk, destination shard) pair.
struct outbox {
    std::vector<candidate> cands;
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
    bool saw_over_cap = false;
    /// Largest count any routed candidate has in a place its firing
    /// touches; phase W widens the stores when it does not fit.
    std::int64_t raised = 0;
    /// Decoded parent row for the stubborn closure, which reads int64s.
    std::vector<std::int64_t> decoded;
    /// Stubborn-set scratch; chunks are single-owner per barrier phase, so
    /// per-chunk scratch keeps phase A lock-free under reduction too.
    stubborn_workspace stubborn_ws;
    std::vector<transition_id> reduced;
};

/// A marking first seen this level, keyed by its discovering edge.
struct fresh_entry {
    state_id parent;
    transition_id via;
    state_id local;
};

/// One hash-prefix shard: a private store plus the local -> global id map.
struct shard_state {
    marking_store store;
    std::vector<state_id> global_of_local;
    std::vector<fresh_entry> fresh; ///< this level, ascending (parent, via)

    shard_state(std::size_t width, std::shared_ptr<exec::chunk_pager> pager,
                unsigned count_bytes)
        : store(width, std::move(pager), count_bytes)
    {
    }
};

/// Where a kept global id lives in the shard stores (the copy source for
/// phase E's publish step).
struct locator {
    std::uint32_t shard;
    state_id local;
};

/// (place, token delta) lists now live in detail:: (state_space.cpp) so the
/// sequential engine can record them as cold-row decode deltas too.
using detail::delta_list;
using detail::firing_deltas;

/// The shared spill pager of one exploration run (null when unlimited):
/// every store — result and per-shard — draws chunks from it, so they
/// compete for one --max-bytes budget.
std::shared_ptr<exec::chunk_pager> make_run_pager(std::size_t max_bytes)
{
    if (max_bytes == 0) {
        return nullptr;
    }
    return std::make_shared<exec::chunk_pager>(
        exec::chunk_pager_options{.max_resident_bytes = max_bytes});
}

bool key_less(const fresh_entry& a, const fresh_entry& b)
{
    return a.parent != b.parent ? a.parent < b.parent : a.via < b.via;
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

/// The level-synchronous engine (exploration_order::ordered) — and the
/// exact-truncation fallback for unordered runs whose state budget binds.
state_space explore_leveled(const petri_net& net,
                            const parallel_explore_options& options)
{
    obs::span run_span("explore.parallel");
    const std::size_t width = net.place_count();
    const std::int64_t cap = options.max_tokens_per_place;
    const std::size_t threads = exec::resolve_thread_count(options.threads);
    run_span.arg("threads", static_cast<std::int64_t>(threads));

    std::size_t shard_count = options.shards ? options.shards : 2 * threads;
    std::size_t shard_bits = 0;
    while ((std::size_t{1} << shard_bits) < shard_count) {
        ++shard_bits;
    }
    shard_count = std::size_t{1} << shard_bits;
    // Top hash bits pick the shard; low bits index the shard's table, so the
    // two never alias.
    const auto shard_of = [shard_bits](std::uint64_t hash) -> std::uint32_t {
        return shard_bits == 0 ? 0u
                               : static_cast<std::uint32_t>(hash >> (64 - shard_bits));
    };

    exec::executor pool(threads);
    const std::size_t max_chunks = threads * 4;
    // Frontiers smaller than this run inline: three barriers per level are
    // only worth paying when a level carries real work.
    const std::size_t inline_below = std::max<std::size_t>(64, 2 * threads);

    const std::vector<std::vector<transition_id>> affected =
        detail::affected_transitions(net);
    const std::vector<delta_list> deltas = firing_deltas(net);

    // Stubborn-set reduction: phase A expands only the deadlock-preserving
    // subset of each frontier state's enabled set.  The subset depends on
    // the marking alone (never on thread/shard/chunk assignment), so the
    // determinism argument below is untouched; full enabled sets are still
    // maintained in phase E for the incremental updates.
    std::optional<stubborn_reduction> stubborn;
    if (options.reduction == reduction_kind::stubborn) {
        stubborn.emplace(net, stubborn_options{.strength = options.strength,
                                               .observed_places = options.observed_places});
    }

    // One count width for every store of the run, starting at the
    // narrowest that holds the root; phase W raises it for all at once.
    const std::vector<std::int64_t>& m0 = net.initial_marking_vector();
    unsigned count_bytes = row_count_bytes(m0.data(), width);
    const std::shared_ptr<exec::chunk_pager> pager =
        make_run_pager(options.max_bytes);
    std::vector<shard_state> shards;
    shards.reserve(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
        shards.emplace_back(width, pager, count_bytes);
    }
    std::vector<chunk_state> chunks(max_chunks);
    for (chunk_state& chunk : chunks) {
        chunk.to_shard.resize(shard_count);
    }

    state_space result;
    marking_store& rstore = detail::space_access::store(result);
    std::vector<state_space_edge>& redges = detail::space_access::edges(result);
    std::vector<std::size_t>& roffsets = detail::space_access::edge_offsets(result);
    rstore = marking_store(width, pager, count_bytes);
    roffsets.push_back(0);
    bool truncated = false;

    // Global id 0 is the root: published into the result store immediately
    // (phases A/B read parent rows from there) and interned into its shard
    // for deduplication.
    const std::uint64_t root_hash = marking_store::hash_tokens(m0.data(), width);
    rstore.start_bulk_build(1);
    with_count_type(count_bytes, [&]<typename T>(T) {
        T* row = detail::row_access::bulk_row<T>(rstore, 0);
        for (std::size_t place = 0; place < width; ++place) {
            row[place] = static_cast<T>(m0[place]);
        }
    });
    rstore.set_bulk_hash(0, root_hash);
    std::vector<locator> locators;
    {
        const std::uint32_t s = shard_of(root_hash);
        const auto [local, inserted] = shards[s].store.intern(m0.data(), root_hash);
        assert(inserted);
        static_cast<void>(inserted);
        shards[s].global_of_local.push_back(0);
        locators.push_back({s, local});
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

    // Enabled sets of the current frontier, then of the next one; the
    // root's is the one full scan.
    std::vector<std::vector<transition_id>> cur_enabled(1);
    for (transition_id t : net.transitions()) {
        if (detail::enabled_in(net, m0.data(), t)) {
            cur_enabled[0].push_back(t);
        }
    }
    std::vector<std::vector<transition_id>> next_enabled;
    std::vector<fresh_entry> kept; ///< this level's renumbered fresh states

    // Telemetry tallies, accumulated in locals and flushed at level / run
    // boundaries so the phase loops never touch an atomic (obs/obs.hpp).
    // States and edges flush per level: a concurrent snapshot() sees them
    // grow monotonically while the run is in flight.
    std::uint64_t obs_phase_a_ns = 0;
    std::uint64_t obs_phase_b_ns = 0;
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
            state_count >= options.max_states ? 0 : options.max_states - state_count;

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
                chunk.saw_over_cap = false;
                chunk.raised = 0;

                const auto [begin, end] = chunk_range(c);
                for (std::size_t p = begin; p < end; ++p) {
                    const T* row =
                        detail::row_access::row<T>(rstore, static_cast<state_id>(p));
                    const std::uint64_t row_hash =
                        rstore.stored_hash(static_cast<state_id>(p));
                    const bool full_cap_scan = root_over_cap && p == 0;

                    const std::vector<transition_id>& enabled =
                        cur_enabled[p - level_begin];
                    const std::vector<transition_id>* expand = &enabled;
                    if (stubborn) {
                        chunk.decoded.assign(row, row + width);
                        stubborn->reduce(chunk.decoded.data(), enabled,
                                         chunk.stubborn_ws, chunk.reduced);
                        expand = &chunk.reduced;
                    }
                    std::uint32_t emitted = 0;
                    for (transition_id t : *expand) {
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
                            chunk.saw_over_cap = true;
                        } else {
                            const std::uint32_t dest = shard_of(next_hash);
                            outbox& ob = chunk.to_shard[dest];
                            ob.cands.push_back({next_hash, static_cast<state_id>(p), t,
                                                invalid_state});
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

        // Phase W: widen every store when a routed candidate does not fit.
        std::int64_t raised = 0;
        for (std::size_t c = 0; c < chunk_count; ++c) {
            raised = std::max(raised, chunks[c].raised);
        }
        if (const unsigned needed = count_bytes_for(raised); needed > count_bytes) {
            count_bytes = needed;
            run_indexed(pool, shard_count + 1, inline_run, [&](std::size_t s) {
                (s == shard_count ? rstore : shards[s].store).widen(count_bytes);
            });
        }

        // Phase B: every shard drains its inboxes and resolves candidates.
        const std::uint64_t obs_b_begin = obs_timing ? obs::now_ns() : 0;
        with_count_type(count_bytes, [&]<typename T>(T) {
            run_indexed(pool, shard_count, inline_run, [&](std::size_t s) {
                obs::span phase_span("phase.dedup", "shard",
                                     static_cast<std::int64_t>(s));
                shard_state& shard = shards[s];
                shard.fresh.clear();
                // Fresh markings past the budget remainder cannot be kept
                // (the shard-local discovery rank is a lower bound on the
                // global one), so stop interning there and let them resolve
                // invalid.
                const std::size_t intern_limit = shard.store.size() + available;
                for (std::size_t c = 0; c < chunk_count; ++c) {
                    for (candidate& cand : chunks[c].to_shard[s].cands) {
                        const T* row = detail::row_access::row<T>(rstore, cand.parent);
                        const delta_list& delta = deltas[cand.via.index()];
                        // stored == row + delta, compared as memcmp runs
                        // between the (few) delta places so the common long
                        // stretches stay vectorized.
                        const auto equals = [&](const T* stored) {
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
                        const auto fill = [&](T* slot) {
                            std::memcpy(slot, row, width * sizeof(T));
                            for (const auto& [place, d] : delta) {
                                slot[place] = static_cast<T>(
                                    static_cast<std::int64_t>(row[place]) + d);
                            }
                        };
                        const auto [local, inserted] = shard.store.intern_with<T>(
                            cand.hash, intern_limit, equals, fill);
                        cand.resolved = local;
                        if (inserted) {
                            assert(shard.fresh.empty() ||
                                   key_less(shard.fresh.back(),
                                            {cand.parent, cand.via, local}));
                            shard.fresh.push_back({cand.parent, cand.via, local});
                            shard.global_of_local.push_back(invalid_state);
                        }
                    }
                }
                phase_span.arg("fresh", static_cast<std::int64_t>(shard.fresh.size()));
            });
        });
        if (obs_timing) {
            obs_phase_b_ns += obs::now_ns() - obs_b_begin;
        }

        // Phase C: renumber this level's fresh markings in sequential
        // discovery order — a k-way merge of the shards' sorted fresh lists
        // — and apply the state budget.
        std::size_t total_fresh = 0;
        for (const shard_state& shard : shards) {
            total_fresh += shard.fresh.size();
        }
        const std::size_t keep = std::min(total_fresh, available);

        kept.clear();
        std::vector<std::size_t> head(shard_count, 0);
        for (std::size_t i = 0; i < keep; ++i) {
            std::size_t best = shard_count;
            for (std::size_t s = 0; s < shard_count; ++s) {
                if (head[s] < shards[s].fresh.size() &&
                    (best == shard_count ||
                     key_less(shards[s].fresh[head[s]],
                              shards[best].fresh[head[best]]))) {
                    best = s;
                }
            }
            const fresh_entry entry = shards[best].fresh[head[best]++];
            const state_id gid = static_cast<state_id>(state_count++);
            shards[best].global_of_local[entry.local] = gid;
            locators.push_back({static_cast<std::uint32_t>(best), entry.local});
            kept.push_back(entry);
        }

        // Phase D: append this level's CSR rows in parent id order.
        for (std::size_t c = 0; c < chunk_count; ++c) {
            const chunk_state& chunk = chunks[c];
            truncated |= chunk.saw_over_cap;
            std::size_t at = 0;
            for (const std::uint32_t count : chunk.ref_count) {
                for (std::uint32_t r = 0; r < count; ++r) {
                    const edge_ref ref = chunk.refs[at++];
                    const candidate& cand = chunk.to_shard[ref.shard].cands[ref.index];
                    const state_id to =
                        cand.resolved == invalid_state
                            ? invalid_state
                            : shards[ref.shard].global_of_local[cand.resolved];
                    if (to == invalid_state) {
                        truncated = true;
                    } else {
                        redges.push_back({cand.via, to});
                    }
                }
                roffsets.push_back(redges.size());
            }
        }

        // Phase E: publish the kept states into the result store and build
        // their enabled sets.
        next_enabled.assign(keep, {});
        rstore.grow_bulk_build(state_count);
        const std::uint64_t obs_e_begin = obs_timing ? obs::now_ns() : 0;
        if (keep != 0) {
            const std::size_t publish_chunks =
                inline_run ? 1 : std::min(keep, max_chunks);
            with_count_type(count_bytes, [&]<typename T>(T) {
                run_indexed(pool, publish_chunks, inline_run, [&](std::size_t c) {
                    obs::span phase_span("phase.publish", "chunk",
                                         static_cast<std::int64_t>(c));
                    const std::size_t begin = keep * c / publish_chunks;
                    const std::size_t end = keep * (c + 1) / publish_chunks;
                    for (std::size_t i = begin; i < end; ++i) {
                        const fresh_entry& entry = kept[i];
                        const state_id gid = static_cast<state_id>(level_end + i);
                        const locator loc = locators[gid];
                        const marking_store& store = shards[loc.shard].store;
                        T* row = detail::row_access::bulk_row<T>(rstore, gid);
                        std::memcpy(row, detail::row_access::row<T>(store, loc.local),
                                    width * sizeof(T));
                        rstore.set_bulk_hash(gid, store.stored_hash(loc.local));
                        detail::merge_enabled(net,
                                              cur_enabled[entry.parent - level_begin],
                                              affected[entry.via.index()], row,
                                              next_enabled[i]);
                    }
                });
            });
        }
        if (obs_timing) {
            obs_phase_e_ns += obs::now_ns() - obs_e_begin;
        }
        flush_progress();
        cur_enabled.swap(next_enabled);
        level_begin = level_end;
        level_end = state_count;
    }

    // The arena already holds every state in global id order; only the
    // lookup table is left to build.
    rstore.finish_bulk_build();
    detail::space_access::truncated(result) = truncated;

    if (obs::stats_enabled()) {
        obs::get_counter("pn.par.phase_a_ns", "ns").add(obs_phase_a_ns);
        obs::get_counter("pn.par.phase_b_ns", "ns").add(obs_phase_b_ns);
        obs::get_counter("pn.par.phase_e_ns", "ns").add(obs_phase_e_ns);
        obs::get_counter("pn.explore.levels").add(obs_levels);
        obs::get_counter("pn.explore.inline_levels").add(obs_inline_levels);
        obs::get_counter("pn.par.candidates").add(obs_candidates);
        std::size_t shard_total = 0;
        std::size_t shard_max = 0;
        for (std::size_t s = 0; s < shard_count; ++s) {
            const std::size_t interned = shards[s].store.size();
            shard_total += interned;
            shard_max = std::max(shard_max, interned);
            obs::get_counter("pn.par.shard." + std::to_string(s) + ".states")
                .add(interned);
            detail::flush_store_obs(shards[s].store);
        }
        // max-over-mean of the shard store sizes: 1.0 is a perfect hash
        // split, k means the fullest shard holds k times its fair share.
        const double mean = static_cast<double>(shard_total) /
                            static_cast<double>(shard_count);
        obs::get_gauge("pn.par.shard_imbalance", "ratio")
            .set(mean == 0.0 ? 0.0 : static_cast<double>(shard_max) / mean);
        if (truncated) {
            obs::get_counter("pn.explore.truncations").add(1);
        }
    }

    if (stubborn && options.strength == reduction_strength::ltl_x) {
        // The base graph above is bit-identical to the sequential engine's,
        // and the fix-up interns in a deterministic sequential order no
        // matter how its candidate batches are generated (see
        // enforce_nonignoring), so the thread-count-independence guarantee
        // carries through.
        detail::enforce_nonignoring(net, *stubborn, result,
                                    {.max_states = options.max_states,
                                     .max_tokens_per_place =
                                         options.max_tokens_per_place,
                                     .reduction = options.reduction,
                                     .strength = options.strength,
                                     .observed_places = options.observed_places},
                                    &pool);
    }
    flush_progress();
    detail::flush_store_obs(rstore);
    if (pager != nullptr) {
        pager->flush_obs();
    }
    run_span.arg("states", static_cast<std::int64_t>(rstore.size()));
    return result;
}

// Unordered mode
// --------------
// No barriers: shards run free over per-shard inbox queues with work
// stealing (exec/shard_queues.hpp).  A worker claims a shard, resolves the
// candidate batches queued for it, expands the follow-on frontier states it
// interned, flushes outgoing candidates to the destination shards, releases
// the shard and claims the next one — expansion and dedup of different
// regions overlap freely across BFS levels.
//
// Determinism still holds, in two steps:
//
//   set   The *set* of interned markings and the *multiset* of edges are
//         schedule-independent: a candidate's tokens, hash, cap verdict and
//         destination shard are pure functions of (parent tokens, firing),
//         the expanded (reduced) edge set of a marking is a deterministic
//         function of its tokens alone (stubborn_reduction::reduce), and
//         the incremental enabled-set merge is path-independent — it
//         computes exactly En(child) whichever discovering edge ran it.
//         Every marking is expanded exactly once by whichever worker owns
//         its shard when it comes off the frontier, so the run produces the
//         same states and edges no matter the interleaving.
//   ids   One renumber pass restores canonical ids: BFS over the *final*
//         graph, children visited in ascending transition order, assigns
//         each state the rank sequential BFS discovers it at — by induction
//         over discovery order, since both walks expand the same
//         deterministic per-state edge sets in the same order.
//
// Budgets: token-cap drops are per-candidate deterministic, so they commute
// with scheduling.  The state budget does not — the sequential prefix of a
// crossing level depends on discovery order a free run never sees — so the
// run counts interned states globally, and the first intern past max_states
// aborts the run (shard_queues::abort); the free result is discarded and
// the leveled engine re-runs with exact truncation semantics.  A binding
// budget caps the useful speedup anyway; correctness never degrades.
//
// Cross-shard candidates carry stable pointers instead of tokens: the
// parent's arena row (unordered stores hold 8-byte counts and never widen,
// so their rows never move) and its enabled set
// (a deque element, address-stable under growth).  The shard_queues mutex
// orders the producer's writes before any consumer's reads, and claims hand
// each shard's state to exactly one worker at a time, so the hot paths stay
// lock-free and TSan-clean.

/// One successor travelling between shards in unordered mode.
struct ucand {
    std::uint64_t hash;
    /// Parent's arena token row — stable for the life of the run, because
    /// unordered stores hold 8-byte counts and never widen.
    const std::int64_t* parent_row;
    /// Parent's full enabled set — deque-resident, address-stable.
    const std::vector<transition_id>* parent_enabled;
    std::uint32_t parent_shard;
    state_id parent_local;
    transition_id via;
};

/// One discovered edge, recorded by the shard that owns the *child*.
struct uedge {
    std::uint32_t parent_shard;
    state_id parent_local;
    transition_id via;
    state_id child_local;
};

/// One shard of the unordered run; every member is touched only under a
/// shard_queues claim, except the stable rows/vectors candidates point at.
struct ushard {
    marking_store store;
    /// Enabled set per local state; a deque, so elements referenced by
    /// in-flight candidates never move as the shard grows.
    std::deque<std::vector<transition_id>> enabled;
    std::vector<state_id> frontier; ///< interned but not yet expanded
    std::vector<uedge> edges;       ///< edges whose child lives here
    std::vector<std::vector<ucand>> out; ///< per-destination outboxes
    bool saw_over_cap = false;
    stubborn_workspace ws;
    std::vector<transition_id> reduced;

    ushard(std::size_t width, std::shared_ptr<exec::chunk_pager> pager)
        : store(width, std::move(pager), 8)
    {
    }
};

state_space explore_unordered(const petri_net& net,
                              const parallel_explore_options& options)
{
    obs::span run_span("explore.unordered");
    const std::size_t width = net.place_count();
    const std::int64_t cap = options.max_tokens_per_place;
    const std::size_t threads = exec::resolve_thread_count(options.threads);
    run_span.arg("threads", static_cast<std::int64_t>(threads));

    // A budget that cannot even hold the root: the leveled engine owns the
    // truncation semantics of that corner.
    if (options.max_states < 1) {
        state_space fallback = explore_leveled(net, options);
        detail::space_access::unordered_fallback(fallback) = true;
        return fallback;
    }

    std::size_t shard_count = options.shards ? options.shards : 2 * threads;
    std::size_t shard_bits = 0;
    while ((std::size_t{1} << shard_bits) < shard_count) {
        ++shard_bits;
    }
    shard_count = std::size_t{1} << shard_bits;
    const auto shard_of = [shard_bits](std::uint64_t hash) -> std::uint32_t {
        return shard_bits == 0 ? 0u
                               : static_cast<std::uint32_t>(hash >> (64 - shard_bits));
    };

    const std::vector<std::vector<transition_id>> affected =
        detail::affected_transitions(net);
    const std::vector<delta_list> deltas = firing_deltas(net);

    std::optional<stubborn_reduction> stubborn;
    if (options.reduction == reduction_kind::stubborn) {
        stubborn.emplace(net, stubborn_options{.strength = options.strength,
                                               .observed_places = options.observed_places});
    }

    // A deque: ushard is neither copyable nor nothrow-movable (the store's
    // arena, the enabled deque), and elements must never relocate anyway —
    // in-flight candidates point into them.
    const std::shared_ptr<exec::chunk_pager> pager =
        make_run_pager(options.max_bytes);
    std::deque<ushard> shards;
    for (std::size_t s = 0; s < shard_count; ++s) {
        shards.emplace_back(width, pager);
        shards.back().out.resize(shard_count);
    }

    exec::executor pool(threads);
    exec::shard_queues<ucand> queues(shard_count);
    std::atomic<std::size_t> interned_total{1}; // the root
    std::atomic<bool> budget_exceeded{false};

    const std::vector<std::int64_t>& m0 = net.initial_marking_vector();
    const std::uint64_t root_hash = marking_store::hash_tokens(m0.data(), width);
    const std::uint32_t root_shard = shard_of(root_hash);
    {
        ushard& sh = shards[root_shard];
        const auto [local, inserted] = sh.store.intern(m0.data(), root_hash);
        assert(inserted && local == 0);
        static_cast<void>(local);
        static_cast<void>(inserted);
        sh.enabled.emplace_back();
        for (transition_id t : net.transitions()) {
            if (detail::enabled_in(net, m0.data(), t)) {
                sh.enabled.back().push_back(t);
            }
        }
        sh.frontier.push_back(0);
    }
    // See explore_state_space: the root is taken as given; when it already
    // exceeds the token cap somewhere, its successors get a full-vector scan.
    bool root_over_cap = false;
    for (std::int64_t count : m0) {
        if (count > cap) {
            root_over_cap = true;
            break;
        }
    }
    queues.seed(root_shard, 1);

    // Remote outboxes flush to the destination's inbox at this size; the
    // final flush at release time sends the remainder.
    constexpr std::size_t flush_at = 256;

    // Per-worker telemetry tallies, folded into obs after the run so the
    // hot loops never touch an atomic.
    std::vector<std::uint64_t> obs_claims(threads, 0);
    std::vector<std::uint64_t> obs_steals(threads, 0);
    std::vector<std::uint64_t> obs_cands(threads, 0);

    // Resolves one candidate against the claimed shard: intern (delta-aware
    // equality and fill, as in the leveled engine's phase B), record the
    // edge, and on a fresh marking build its enabled set and queue it for
    // expansion.  The first intern past max_states aborts the whole run.
    const auto resolve = [&](ushard& sh, const ucand& cand) {
        const std::int64_t* row = cand.parent_row;
        const delta_list& delta = deltas[cand.via.index()];
        const auto equals = [&](const std::int64_t* stored) {
            std::size_t prev = 0;
            for (const auto& [place, d] : delta) {
                if (std::memcmp(stored + prev, row + prev,
                                (place - prev) * sizeof(std::int64_t)) != 0) {
                    return false;
                }
                if (stored[place] != row[place] + d) {
                    return false;
                }
                prev = place + 1;
            }
            return std::memcmp(stored + prev, row + prev,
                               (width - prev) * sizeof(std::int64_t)) == 0;
        };
        const auto fill = [&](std::int64_t* slot) {
            std::memcpy(slot, row, width * sizeof(std::int64_t));
            for (const auto& [place, d] : delta) {
                slot[place] += d;
            }
        };
        const auto [local, inserted] = sh.store.intern_with<std::int64_t>(
            cand.hash, ~std::size_t{0}, equals, fill);
        sh.edges.push_back({cand.parent_shard, cand.parent_local, cand.via, local});
        if (!inserted) {
            return;
        }
        const std::size_t total =
            interned_total.fetch_add(1, std::memory_order_relaxed) + 1;
        if (total > options.max_states) {
            budget_exceeded.store(true, std::memory_order_relaxed);
            queues.abort();
            return;
        }
        sh.enabled.emplace_back();
        detail::merge_enabled(net, *cand.parent_enabled, affected[cand.via.index()],
                              detail::row_access::row<std::int64_t>(sh.store, local),
                              sh.enabled.back());
        sh.frontier.push_back(local);
        queues.add_work(1);
    };

    // Expands one owned state into per-destination candidates, exactly the
    // leveled engine's phase A per-state step (incremental Zobrist hash,
    // per-delta cap check, full scan off an over-cap root, stubborn subset).
    const auto expand = [&](ushard& sh, std::uint32_t me, state_id local,
                            std::uint64_t& cand_tally) {
        const std::int64_t* row = detail::row_access::row<std::int64_t>(sh.store, local);
        const std::uint64_t row_hash = sh.store.stored_hash(local);
        const bool full_cap_scan = root_over_cap && me == root_shard && local == 0;
        const std::vector<transition_id>& enabled = sh.enabled[local];
        const std::vector<transition_id>* fire = &enabled;
        if (stubborn) {
            stubborn->reduce(row, enabled, sh.ws, sh.reduced);
            fire = &sh.reduced;
        }
        for (transition_id t : *fire) {
            std::uint64_t next_hash = row_hash;
            bool over_cap = false;
            const delta_list& delta = deltas[t.index()];
            for (const auto& [place, d] : delta) {
                const std::int64_t now = row[place];
                const std::int64_t then = now + d;
                next_hash ^= marking_store::component_mix(place, now) ^
                             marking_store::component_mix(place, then);
                over_cap |= d > 0 && then > cap;
            }
            if (full_cap_scan && !over_cap) {
                std::size_t at = 0;
                for (std::size_t place = 0; place < width; ++place) {
                    std::int64_t then = row[place];
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
                sh.saw_over_cap = true;
                continue;
            }
            ++cand_tally;
            const std::uint32_t dest = shard_of(next_hash);
            sh.out[dest].push_back(
                {next_hash, row, &enabled, me, local, t});
            if (dest != me && sh.out[dest].size() >= flush_at) {
                queues.push(dest, std::move(sh.out[dest]));
                sh.out[dest].clear();
            }
        }
    };

    const auto worker = [&](std::size_t w) {
        const std::size_t home = shard_count * w / threads;
        const std::size_t home_end = shard_count * (w + 1) / threads;
        std::vector<ucand> self;
        while (auto claimed = queues.claim_work(home)) {
            const auto me = static_cast<std::uint32_t>(claimed->shard);
            ushard& sh = shards[me];
            ++obs_claims[w];
            obs_steals[w] += (me < home || me >= home_end) ? 1 : 0;
            std::size_t retired = 0;
            for (std::vector<ucand>& batch : claimed->batches) {
                for (const ucand& cand : batch) {
                    if (budget_exceeded.load(std::memory_order_relaxed)) {
                        break;
                    }
                    resolve(sh, cand);
                }
                retired += batch.size();
            }
            // Drain follow-on work while we own the shard: self-routed
            // candidates first (they may dedup against states about to be
            // expanded), then the frontier.
            for (;;) {
                if (budget_exceeded.load(std::memory_order_relaxed)) {
                    break;
                }
                if (!sh.out[me].empty()) {
                    self.clear();
                    self.swap(sh.out[me]);
                    for (const ucand& cand : self) {
                        if (budget_exceeded.load(std::memory_order_relaxed)) {
                            break;
                        }
                        resolve(sh, cand);
                    }
                    continue;
                }
                if (sh.frontier.empty()) {
                    break;
                }
                const state_id local = sh.frontier.back();
                sh.frontier.pop_back();
                expand(sh, me, local, obs_cands[w]);
                ++retired;
            }
            for (std::uint32_t dest = 0; dest < shard_count; ++dest) {
                if (dest != me && !sh.out[dest].empty()) {
                    queues.push(dest, std::move(sh.out[dest]));
                    sh.out[dest].clear();
                }
            }
            queues.release(me);
            queues.finish_work(retired);
        }
    };
    pool.for_each_index(threads, worker);

    if (budget_exceeded.load(std::memory_order_relaxed)) {
        // The reachable set outgrew max_states: only a discovery-ordered
        // run knows which prefix survives, so the free run's result is
        // unusable.  Discard it and pay for the exact answer.
        if (obs::stats_enabled()) {
            obs::get_counter("pn.unord.budget_fallbacks").add(1);
        }
        run_span.arg("budget_fallback", 1);
        state_space fallback = explore_leveled(net, options);
        detail::space_access::unordered_fallback(fallback) = true;
        return fallback;
    }

    // Assembly.  Temporary ids concatenate the shard stores; a counting
    // sort lays the edges out as a CSR over temp ids, each row sorted by
    // transition; the BFS renumber pass then rewrites both to canonical
    // sequential ids.
    obs::span assembly_span("explore.unordered.assembly");
    std::vector<std::size_t> base(shard_count + 1, 0);
    for (std::size_t s = 0; s < shard_count; ++s) {
        base[s + 1] = base[s] + shards[s].store.size();
    }
    const std::size_t total = base[shard_count];

    std::vector<std::size_t> row_begin(total + 1, 0);
    for (std::size_t s = 0; s < shard_count; ++s) {
        for (const uedge& e : shards[s].edges) {
            ++row_begin[base[e.parent_shard] + e.parent_local + 1];
        }
    }
    for (std::size_t i = 0; i < total; ++i) {
        row_begin[i + 1] += row_begin[i];
    }
    struct temp_edge {
        transition_id via{0};
        std::size_t child = 0;
    };
    std::vector<temp_edge> temp_edges(row_begin[total]);
    {
        std::vector<std::size_t> cursor(row_begin.begin(), row_begin.end() - 1);
        for (std::size_t s = 0; s < shard_count; ++s) {
            for (const uedge& e : shards[s].edges) {
                const std::size_t p = base[e.parent_shard] + e.parent_local;
                temp_edges[cursor[p]++] = {e.via, base[s] + e.child_local};
            }
        }
    }
    // Rows are disjoint slices: sort them in parallel.  Each row holds at
    // most one edge per transition (states expand exactly once), so the
    // order is total.
    if (total != 0) {
        const std::size_t sort_chunks = std::min<std::size_t>(total, threads * 4);
        pool.for_each_index(sort_chunks, [&](std::size_t c) {
            const std::size_t begin = total * c / sort_chunks;
            const std::size_t end = total * (c + 1) / sort_chunks;
            for (std::size_t p = begin; p < end; ++p) {
                std::sort(temp_edges.begin() +
                              static_cast<std::ptrdiff_t>(row_begin[p]),
                          temp_edges.begin() +
                              static_cast<std::ptrdiff_t>(row_begin[p + 1]),
                          [](const temp_edge& a, const temp_edge& b) {
                              return a.via < b.via;
                          });
            }
        });
    }

    // BFS renumber over the final graph (children in ascending transition
    // order) == sequential discovery order; see "Determinism still holds"
    // above.  Every interned state was interned off a recorded edge, so the
    // walk covers all of them.
    const std::size_t unseen = total;
    std::vector<std::size_t> new_of_temp(total, unseen);
    std::vector<std::size_t> temp_of_new;
    temp_of_new.reserve(total);
    new_of_temp[base[root_shard]] = 0;
    temp_of_new.push_back(base[root_shard]);
    for (std::size_t i = 0; i < temp_of_new.size(); ++i) {
        const std::size_t p = temp_of_new[i];
        for (std::size_t e = row_begin[p]; e < row_begin[p + 1]; ++e) {
            const std::size_t child = temp_edges[e].child;
            if (new_of_temp[child] == unseen) {
                new_of_temp[child] = temp_of_new.size();
                temp_of_new.push_back(child);
            }
        }
    }
    assert(temp_of_new.size() == total);

    state_space result;
    marking_store& rstore = detail::space_access::store(result);
    std::vector<state_space_edge>& redges = detail::space_access::edges(result);
    std::vector<std::size_t>& roffsets = detail::space_access::edge_offsets(result);
    rstore = marking_store(width, pager, 8);
    // Renumber by adoption: the result store references the shard stores'
    // arena rows in place and takes ownership of the stores themselves, so
    // no marking bytes move (pn.unord.renumber_bytes_moved pins this at 0).
    rstore.start_adopt(total);
    {
        const std::size_t fill_chunks = std::min<std::size_t>(total, threads * 4);
        pool.for_each_index(fill_chunks, [&](std::size_t c) {
            const std::size_t begin = total * c / fill_chunks;
            const std::size_t end = total * (c + 1) / fill_chunks;
            for (std::size_t gid = begin; gid < end; ++gid) {
                const std::size_t p = temp_of_new[gid];
                const std::size_t s = static_cast<std::size_t>(
                    std::upper_bound(base.begin(), base.end(), p) - base.begin() - 1);
                const auto local = static_cast<state_id>(p - base[s]);
                const marking_store& store = shards[s].store;
                rstore.set_adopted(static_cast<state_id>(gid),
                                   detail::row_access::row<std::int64_t>(store, local),
                                   store.stored_hash(local));
            }
        });
    }
    // Shard-store tallies flush now — the stores are about to be moved into
    // the result as adoption backing.
    std::size_t shard_states_total = 0;
    std::size_t shard_states_max = 0;
    if (obs::stats_enabled()) {
        for (std::size_t s = 0; s < shard_count; ++s) {
            const std::size_t interned = shards[s].store.size();
            shard_states_total += interned;
            shard_states_max = std::max(shard_states_max, interned);
            obs::get_counter("pn.par.shard." + std::to_string(s) + ".states")
                .add(interned);
            detail::flush_store_obs(shards[s].store);
        }
    }
    {
        std::vector<std::unique_ptr<marking_store>> backing;
        backing.reserve(shard_count);
        for (std::size_t s = 0; s < shard_count; ++s) {
            backing.push_back(
                std::make_unique<marking_store>(std::move(shards[s].store)));
        }
        rstore.finish_adopt(std::move(backing));
    }

    roffsets.reserve(total + 1);
    roffsets.push_back(0);
    redges.reserve(row_begin[total]);
    for (std::size_t gid = 0; gid < total; ++gid) {
        const std::size_t p = temp_of_new[gid];
        for (std::size_t e = row_begin[p]; e < row_begin[p + 1]; ++e) {
            redges.push_back(
                {temp_edges[e].via,
                 static_cast<state_id>(new_of_temp[temp_edges[e].child])});
        }
        roffsets.push_back(redges.size());
    }
    bool truncated = false;
    for (const ushard& sh : shards) {
        truncated |= sh.saw_over_cap;
    }
    detail::space_access::truncated(result) = truncated;
    assembly_span.arg("states", static_cast<std::int64_t>(total));

    if (stubborn && options.strength == reduction_strength::ltl_x) {
        // The renumbered graph equals the sequential engine's, and the
        // fix-up interns in a deterministic sequential order however its
        // candidate batches are generated, so unordered ltl_x results stay
        // bit-identical too.
        detail::enforce_nonignoring(net, *stubborn, result,
                                    {.max_states = options.max_states,
                                     .max_tokens_per_place =
                                         options.max_tokens_per_place,
                                     .reduction = options.reduction,
                                     .strength = options.strength,
                                     .observed_places = options.observed_places},
                                    &pool);
    }

    if (obs::stats_enabled()) {
        std::uint64_t claims = 0;
        std::uint64_t steals = 0;
        std::uint64_t cands = 0;
        for (std::size_t w = 0; w < threads; ++w) {
            claims += obs_claims[w];
            steals += obs_steals[w];
            cands += obs_cands[w];
        }
        obs::get_counter("pn.unord.claims").add(claims);
        obs::get_counter("pn.unord.steals").add(steals);
        obs::get_counter("pn.par.candidates").add(cands);
        obs::get_counter("pn.explore.states").add(rstore.size());
        obs::get_counter("pn.explore.edges").add(redges.size());
        // Proves the renumber pass stopped copying markings: adoption moves
        // store ownership, not bytes.
        obs::get_counter("pn.unord.renumber_bytes_moved", "bytes").add(0);
        const double mean = static_cast<double>(shard_states_total) /
                            static_cast<double>(shard_count);
        obs::get_gauge("pn.par.shard_imbalance", "ratio")
            .set(mean == 0.0 ? 0.0 : static_cast<double>(shard_states_max) / mean);
        if (truncated) {
            obs::get_counter("pn.explore.truncations").add(1);
        }
    }
    detail::flush_store_obs(rstore);
    if (pager != nullptr) {
        pager->flush_obs();
    }
    run_span.arg("states", static_cast<std::int64_t>(rstore.size()));
    return result;
}

} // namespace

state_space explore_parallel(const petri_net& net,
                             const parallel_explore_options& options)
{
    return options.order == exploration_order::unordered
               ? explore_unordered(net, options)
               : explore_leveled(net, options);
}

} // namespace fcqss::pn
