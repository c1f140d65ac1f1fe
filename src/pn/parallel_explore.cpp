#include "pn/parallel_explore.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "exec/chunk_pager.hpp"
#include "exec/executor.hpp"
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
        detail::enforce_nonignoring(net, *stubborn, result, options, &pool);
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
