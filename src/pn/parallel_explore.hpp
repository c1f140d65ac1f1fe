// fcqss — pn/parallel_explore.hpp
// Sharded parallel BFS over the arena-interned state-space engine.  The
// marking universe is partitioned into hash-prefix shards (2 x threads,
// rounded up to a power of two), each owning a private dedup index
// (open-addressing table and hashes, no rows: every row is stored once, in
// the result store) that only one worker thread ever mutates;
// successors that hash to another shard travel through per-(chunk, shard)
// handoff outboxes between barriers, so the hot paths need no locks at all.
// Exploration is level-synchronous, and ids are (re)assigned after every
// level in sequential discovery order, which makes the result
// *bit-identical* to explore_state_space() — same state ids, same CSR edge
// layout, same truncation behaviour — for every thread count.  See the
// "Determinism" note in parallel_explore.cpp.
#ifndef FCQSS_PN_PARALLEL_EXPLORE_HPP
#define FCQSS_PN_PARALLEL_EXPLORE_HPP

#include "pn/petri_net.hpp"
#include "pn/state_space.hpp"

namespace fcqss::pn {

/// Breadth-first exploration from the net's initial marking on the sharded
/// parallel engine, with options.threads workers taken literally: 0 picks
/// the hardware concurrency, and 1 still runs the sharded engine on a
/// single worker (the differential tests rely on exercising the same code
/// path at every thread count).  Returns the same states, ids, edges and
/// truncation verdict as explore_state_space() with the same budgets and
/// reduction, at any thread count.
[[nodiscard]] state_space explore_parallel(const petri_net& net,
                                           const reachability_options& options = {});

} // namespace fcqss::pn

#endif // FCQSS_PN_PARALLEL_EXPLORE_HPP
