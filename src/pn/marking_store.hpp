// fcqss — pn/marking_store.hpp
// Arena-interned marking storage for explicit-state exploration.  Every
// distinct marking is stored exactly once as a contiguous row of token
// counts inside a chunked bump arena and addressed by a dense 32-bit
// state_id; a separate open-addressing hash set (detail::hash_index, keyed
// by precomputed 64-bit hashes) deduplicates candidates without per-state
// heap nodes.  The parallel engine's shards use that index without a store
// around it: the rows they dedup against live in the result store.
//
// Compact rows: a store keeps every count in count_bytes() ∈ {1, 2, 4, 8}
// bytes — u8, u16, u32, and signed 8-byte from 2^32 up — so a row is
// width() × count_bytes() bytes.  The width is one per store.  It starts at
// whatever the caller passes (the engines pass the narrowest width that
// holds the root marking), and the first marking about to be interned that
// has a count the width cannot hold widens the store: every row is
// re-encoded at the wider width into fresh chunks and the old chunks are
// released.  Hashes are Zobrist over the int64 values, never over the
// encoding, so ids, hashes and lookups are unaffected by any widening.
//
// Row pointers stay valid until the next widening; public accessors
// decode.  tokens() returns a copy and load() decodes into a caller buffer.
// Only the exploration engines touch encoded rows, through
// detail::row_access, and they widen only at points where no other thread
// holds a row pointer.
//
// External memory: a store constructed with an exec::chunk_pager (the
// engines build one under a --max-bytes budget) draws its arena chunks from
// the pager instead of the heap.  The pager backs chunks with an mmap'd
// spill file and evicts cold ones (the bump chunk being filled stays
// pinned).  Every read — intern and find probes, load(), tokens() — goes
// straight through the mapping and refaults an evicted row's pages
// transparently, so correctness and the store's footprint are the same
// with or without a budget.
#ifndef FCQSS_PN_MARKING_STORE_HPP
#define FCQSS_PN_MARKING_STORE_HPP

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "base/grow_array.hpp"

namespace fcqss::exec {
class chunk_pager;
}

namespace fcqss::pn {

/// Dense index of an interned marking within a marking_store.
using state_id = std::uint32_t;

/// Sentinel for "no such state".
inline constexpr state_id invalid_state = static_cast<state_id>(-1);

/// Bytes per stored count (1, 2, 4 or 8) that hold `count`: u8 / u16 / u32
/// for non-negative counts below 2^8 / 2^16 / 2^32, signed 8-byte otherwise.
[[nodiscard]] constexpr unsigned count_bytes_for(std::int64_t count) noexcept
{
    const auto value = static_cast<std::uint64_t>(count); // negatives -> huge
    return value <= 0xffu ? 1u : value <= 0xffffu ? 2u : value <= 0xffffffffu ? 4u : 8u;
}

/// count_bytes_for the largest count of a token vector.
[[nodiscard]] unsigned row_count_bytes(const std::int64_t* tokens,
                                       std::size_t count) noexcept;

/// Calls fn(T{}) with T the storage type of a `bytes`-wide count —
/// std::uint8_t, std::uint16_t, std::uint32_t or std::int64_t — so one
/// generic body compiles once per width and is dispatched once per call.
template <typename Fn>
decltype(auto) with_count_type(unsigned bytes, Fn&& fn)
{
    switch (bytes) {
    case 1:
        return fn(std::uint8_t{});
    case 2:
        return fn(std::uint16_t{});
    case 4:
        return fn(std::uint32_t{});
    default:
        return fn(std::int64_t{});
    }
}

/// Running tallies of one store's (or one shard index's) dedup work,
/// maintained unconditionally (plain increments on single-owner structures,
/// so no atomics are needed) and flushed into the global obs counters by
/// the engines when telemetry is on.
struct marking_store_stats {
    std::uint64_t probes = 0;         ///< hash-table slots inspected by interns
    std::uint64_t dedup_hits = 0;     ///< interns that found an existing marking
    std::uint64_t inserts = 0;        ///< markings newly interned
    std::uint64_t budget_rejects = 0; ///< interns refused by max_states
    std::uint64_t resizes = 0;        ///< open-addressing table rebuilds
    std::uint64_t widenings = 0;      ///< re-encodings at a wider count width
};

namespace detail {

struct row_access;

/// The open-addressing dedup index behind marking_store and the parallel
/// engine's shard indexes: the precomputed 64-bit hash of every dense id
/// 0..size()-1, and a power-of-two table of ids (invalid_state = empty
/// slot) probed linearly from the hash's low bits and kept below a 0.7
/// load factor.  The index holds no rows: a probe asks its caller whether
/// an id with a matching hash is the candidate.  This is the one place the
/// probe and rebuild policy lives.
class hash_index {
public:
    hash_index();

    /// Ids indexed so far.
    [[nodiscard]] std::size_t size() const noexcept { return hashes_.size(); }
    /// The hash `id` was indexed with.
    [[nodiscard]] std::uint64_t hash(state_id id) const noexcept { return hashes_[id]; }

    /// Probes for `hash`: the {slot, id} of the first indexed id with that
    /// hash for which `equals(id)` holds, or {the empty slot that ended the
    /// probe, invalid_state}.  Adds the slots inspected to `probes`.
    template <typename Equals>
    [[nodiscard]] std::pair<std::size_t, state_id> probe(std::uint64_t hash, Equals&& equals,
                                                         std::uint64_t& probes) const
    {
        for (std::size_t slot = hash & mask_;; slot = (slot + 1) & mask_) {
            ++probes;
            const state_id id = table_[slot];
            if (id == invalid_state || (hashes_[id] == hash && equals(id))) {
                return {slot, id};
            }
        }
    }

    /// Indexes id size() with `hash` in `slot`, the empty slot a probe for
    /// `hash` just ended on.  Returns whether the table was rebuilt larger.
    bool insert(std::size_t slot, std::uint64_t hash);

    /// Bulk building: sets size() to `count`; ids from the old size on get
    /// their hashes from set_hash(), from any thread (distinct ids), and no
    /// probe or insert is valid until rebuild().
    void resize_for_overwrite(std::size_t count) { hashes_.resize_for_overwrite(count); }
    void set_hash(state_id id, std::uint64_t hash) noexcept { hashes_[id] = hash; }
    /// Rebuilds the table from the hashes at the smallest capacity that
    /// keeps the load factor.  The ids are trusted to be pairwise distinct.
    void rebuild();

    /// Hashes and table, in bytes.
    [[nodiscard]] std::size_t memory_bytes() const noexcept;

private:
    void rebuild_table(std::size_t capacity);

    grow_array<std::uint64_t> hashes_;
    std::vector<state_id> table_;
    std::size_t mask_ = 0;
};

} // namespace detail

class marking_store {
public:
    /// A store for markings of `width` places, arena on the heap, counts
    /// starting at one byte.
    explicit marking_store(std::size_t width);

    /// A store whose arena chunks come from `pager` (shared across all the
    /// stores of one exploration run so they compete for one budget), with
    /// counts starting at `count_bytes` (1, 2, 4 or 8) bytes.  A null pager
    /// keeps the arena on the heap.
    marking_store(std::size_t width, std::shared_ptr<exec::chunk_pager> pager,
                  unsigned count_bytes = 1);

    ~marking_store();
    marking_store(marking_store&&) noexcept;
    marking_store& operator=(marking_store&&) noexcept;

    /// Number of token counts per marking (|P| of the net).
    [[nodiscard]] std::size_t width() const noexcept { return width_; }
    /// Number of distinct markings interned so far.
    [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
    /// Bytes per stored count: 1, 2, 4 or 8.
    [[nodiscard]] unsigned count_bytes() const noexcept { return count_bytes_; }

    /// 64-bit hash of a token vector.  Zobrist-style: the hash is the XOR of
    /// a per-(place, count) mix, so callers that change a few places can
    /// update a running hash incrementally with component_mix() instead of
    /// rehashing the whole vector.
    [[nodiscard]] static std::uint64_t hash_tokens(const std::int64_t* tokens,
                                                   std::size_t count) noexcept;

    /// The contribution of (place index, token count) to hash_tokens; XOR
    /// out the old count's mix and XOR in the new one to update a hash.
    [[nodiscard]] static std::uint64_t component_mix(std::size_t place,
                                                     std::int64_t count) noexcept;

    /// Interns `tokens` (length width()) whose hash_tokens value is `hash`.
    /// Returns the state id and whether the marking was newly inserted.
    /// When inserting would grow the store past `max_states`, returns
    /// {invalid_state, false} and leaves the store untouched.  A marking
    /// about to be inserted with a count the current width cannot hold
    /// widens the store first (see widen()).
    std::pair<state_id, bool>
    intern(const std::int64_t* tokens, std::uint64_t hash,
           std::size_t max_states = static_cast<std::size_t>(-1));

    /// Looks `tokens` up without inserting; invalid_state when absent.  A
    /// marking with a count above the current width is absent by
    /// construction; find() never widens.
    [[nodiscard]] state_id find(const std::int64_t* tokens,
                                std::uint64_t hash) const noexcept;

    /// The token counts of `id`, decoded into a fresh vector.
    [[nodiscard]] std::vector<std::int64_t> tokens(state_id id) const;

    /// Decodes the token counts of `id` into out[0, width()) — the
    /// allocation-free form of tokens() for loops over every state.  Reads
    /// evicted rows straight through the mapping (the pages refault).
    void load(state_id id, std::int64_t* out) const noexcept;

    /// The precomputed hash of `id` (as passed to intern()).
    [[nodiscard]] std::uint64_t stored_hash(state_id id) const noexcept
    {
        return index_.hash(id);
    }

    /// Re-encodes every row at `count_bytes` (1, 2, 4 or 8) bytes per count
    /// if that is wider than count_bytes(); a no-op otherwise.  Rows move
    /// to fresh chunks (the old ones go back to the heap or the pager), so
    /// every row pointer taken before the call is invalidated; ids, hashes
    /// and lookups are unchanged.
    void widen(unsigned count_bytes);

    /// The pager backing this store's arena, or null.
    [[nodiscard]] const std::shared_ptr<exec::chunk_pager>& pager() const noexcept
    {
        return pager_;
    }

    /// Arena bytes only (chunks, at full chunk granularity, at the current
    /// count width), excluding the hash table — the denominator of a spill
    /// ratio.
    [[nodiscard]] std::size_t arena_bytes() const noexcept;

    // -- Bulk building (the parallel engine's publish step) -----------------
    //
    // The sharded explorer dedups markings in per-shard indexes and already
    // knows the result is pairwise-distinct markings, numbered level by
    // level; copying them through intern() would redo one hash probe and
    // one compare per state on one thread.  start_bulk_build() and
    // grow_bulk_build() size the arena and the hash array so disjoint ids
    // can be filled concurrently through detail::row_access::bulk_row() /
    // set_bulk_hash(); finish_bulk_build() then rebuilds the dedup table
    // from the hashes alone.  No lookup or intern is valid in between.
    // Growing the hash array neither zero-fills nor copies it (grow_array),
    // so the threads filling a level first-touch its new pages.

    /// Pre-sizes an empty store to exactly `count` markings with
    /// unspecified contents.  Every id in [0, count) must be filled before
    /// finish_bulk_build(); distinct ids may be filled from different
    /// threads.
    void start_bulk_build(std::size_t count);

    /// Extends a bulk build to `count` markings (count >= size()): the new
    /// slots [size(), count) behave like start_bulk_build slots.  Must be
    /// called from one thread, with no concurrent reader or writer; already
    /// filled rows stay where they are (only widen() moves rows), so
    /// barrier-separated phases can keep reading them.
    void grow_bulk_build(std::size_t count);

    /// Records the precomputed hash of `id` during a bulk build.
    void set_bulk_hash(state_id id, std::uint64_t hash) noexcept { index_.set_hash(id, hash); }

    /// Rebuilds the open-addressing table from the bulk-filled hashes.
    /// Entries are trusted to be pairwise distinct (no equality checks).
    void finish_bulk_build();

    /// Arena, hashes and table: the store's whole footprint, for telemetry
    /// and benches.
    [[nodiscard]] std::size_t memory_bytes() const noexcept;

    /// Arena chunks held right now.
    [[nodiscard]] std::size_t chunk_count() const noexcept { return chunk_rows_.size(); }

    /// Dedup-work tallies since construction (see marking_store_stats).
    [[nodiscard]] const marking_store_stats& stats() const noexcept { return stats_; }

private:
    friend struct detail::row_access;

    /// The encoded row of `id`.  Valid until the next widening.
    [[nodiscard]] std::byte* row(state_id id) const noexcept
    {
        return chunk_rows_[id >> chunk_shift_] +
               (id & ((std::size_t{1} << chunk_shift_) - 1)) * row_bytes_;
    }

    /// Appends `id` = size() with `hash` into empty table slot `slot`
    /// (allocating a chunk when the row starts one).  The caller fills the
    /// row.
    state_id insert_at(std::size_t slot, std::uint64_t hash);

    void set_count_bytes(unsigned count_bytes) noexcept;
    void allocate_chunk();

    std::size_t width_;
    unsigned count_bytes_ = 1;
    std::size_t row_bytes_ = 0;
    /// log2 of the states per chunk: a power of two near 256 KiB of rows,
    /// so locating a row is a shift and a mask.
    unsigned chunk_shift_ = 0;
    /// Bump arena: fixed-capacity chunks of 2^chunk_shift_ rows, allocated
    /// whole so rows never move except by widen().  Rows are addressed
    /// through chunk_rows_; the memory is owned either by owned_chunks_
    /// (heap mode) or by the pager.
    std::vector<std::byte*> chunk_rows_;
    std::vector<std::unique_ptr<std::byte[]>> owned_chunks_;
    std::shared_ptr<exec::chunk_pager> pager_;
    std::vector<std::uint32_t> pager_chunk_ids_;
    /// Per-state precomputed hashes and the dedup table over them.
    detail::hash_index index_;
    marking_store_stats stats_{};
};

namespace detail {

/// Encoded-row access for the exploration engines.  T must be the storage
/// type of the store's count_bytes(); the pointers stay valid until the
/// store's next widen().
struct row_access {
    template <typename T>
    [[nodiscard]] static const T* row(const marking_store& store, state_id id) noexcept
    {
        assert(sizeof(T) == store.count_bytes_);
        return reinterpret_cast<const T*>(store.row(id));
    }

    /// Writable row of a bulk-build slot.
    template <typename T>
    [[nodiscard]] static T* bulk_row(marking_store& store, state_id id) noexcept
    {
        assert(sizeof(T) == store.count_bytes_);
        return reinterpret_cast<T*>(store.row(id));
    }
};

} // namespace detail

} // namespace fcqss::pn

#endif // FCQSS_PN_MARKING_STORE_HPP
