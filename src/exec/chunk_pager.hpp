// fcqss — exec/chunk_pager.hpp
// External-memory backing for bump-arena chunks.  A pager hands out
// fixed-address chunk allocations backed by one mmap'd spill file and evicts
// cold chunks to keep the resident set under a byte budget.  Engines build
// one only under a --max-bytes budget; unbudgeted stores keep their arena on
// the heap.
//
// The one invariant everything above relies on: **a chunk's address never
// changes until the chunk is released.**  marking_store rows and the
// engines' cross-thread parent-row pointers point straight into chunks, so
// eviction must not remap anything.  Chunks are therefore MAP_SHARED
// mappings that stay mapped until release(); "eviction" is
// msync(MS_ASYNC) + madvise(MADV_DONTNEED), which drops the chunk's
// resident pages (the file keeps the bytes) while leaving the address range
// valid — a later read simply refaults the pages back in from the spill
// file, transparently and safely, even concurrently with the eviction
// itself.  Correctness is thus independent of eviction policy; only
// locality is at stake.  A store that re-encodes its rows at a wider count
// width (marking_store::widen) copies them into fresh chunks and releases
// the old ones: row pointers stay valid until the next widening.
//
// The spill file lives under $TMPDIR, else /tmp (created with mkstemp,
// removed on destruction; the path is exposed for tests).  allocate()
// evicts cold unpinned chunks, oldest first, until the believed-resident
// bytes fit the budget.  Pinned chunks (each store pins the bump chunk it is
// filling) are never evicted, so the write frontier stays hot; older chunks
// age out in allocation order, which for a BFS arena is ascending state id —
// exactly cold-first.
//
// External truncation of the spill file would otherwise surface as a
// SIGBUS deep inside a token read; instead the pager re-validates the
// file's size (fstat) on every allocation and on validate_backing(), and
// throws fcqss::io_error the moment the file is shorter than the bytes
// handed out.
//
// Thread safety: allocate/release/pin/unpin/resident/stats take one
// internal mutex (stores call the pager once per 256 KiB chunk, far off any
// hot path).  Reads and writes of chunk *memory* need no pager involvement
// at all.
#ifndef FCQSS_EXEC_CHUNK_PAGER_HPP
#define FCQSS_EXEC_CHUNK_PAGER_HPP

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>

namespace fcqss::exec {

/// Cumulative pager tallies (see flush_obs for the pn.mem.* mapping).
struct chunk_pager_stats {
    std::uint64_t chunks = 0;          ///< chunks allocated, ever
    std::uint64_t resident_chunks = 0; ///< believed resident right now
    std::uint64_t spilled_chunks = 0;  ///< believed evicted right now
    std::uint64_t released_chunks = 0; ///< handed back through release()
    std::uint64_t evictions = 0;       ///< eviction operations, ever
    std::uint64_t spill_file_bytes = 0; ///< spill file extent
    std::uint64_t resident_bytes = 0;  ///< believed resident bytes
};

class chunk_pager {
public:
    /// A pager whose chunks spill to a fresh file once they would hold more
    /// than `max_resident_bytes` (non-zero) resident.  The ceiling is
    /// advisory in the mmap sense: evicted pages refault on access, so a
    /// workload that touches everything at once can still exceed it
    /// transiently — but the pager keeps madvising cold chunks away, so the
    /// steady-state resident set tracks the budget.  Throws fcqss::io_error
    /// when the spill file cannot be created.
    explicit chunk_pager(std::size_t max_resident_bytes);
    ~chunk_pager();

    chunk_pager(const chunk_pager&) = delete;
    chunk_pager& operator=(const chunk_pager&) = delete;

    /// Allocates a chunk of `bytes` (page-rounded) and returns (chunk id,
    /// base address).  The address is stable until the chunk is released or
    /// the pager is destroyed.  May evict cold chunks first; throws
    /// fcqss::io_error when the spill file cannot grow or was truncated
    /// externally.
    std::pair<std::uint32_t, void*> allocate(std::size_t bytes);

    /// Hands a chunk back: it is unmapped and its spill-file range
    /// hole-punched, and its address becomes invalid.  The id is never
    /// reused.  Releasing twice is a no-op.
    void release(std::uint32_t id);

    /// Pin/unpin a chunk against eviction (counted: pins nest).
    void pin(std::uint32_t id);
    void unpin(std::uint32_t id);

    /// True when the chunk counts as resident: allocated, not released, and
    /// not evicted since.  An evicted chunk whose pages refaulted through a
    /// read still counts as evicted.
    [[nodiscard]] bool resident(std::uint32_t id) const;

    /// Path of the spill file.  Exposed so tests can corrupt/truncate it
    /// and assert the io_error surface.
    [[nodiscard]] const std::string& spill_path() const noexcept
    {
        return spill_path_;
    }

    /// Re-checks that the spill file still covers every byte handed out;
    /// throws fcqss::io_error otherwise.  Called internally by allocate().
    void validate_backing() const;

    [[nodiscard]] chunk_pager_stats stats() const;

    /// Adds this pager's tallies to the global pn.mem.* obs counters and
    /// sets the pn.mem.peak_rss_bytes gauge from getrusage.  Call once per
    /// exploration run; no-op when stats are off.
    void flush_obs() const;

private:
    struct chunk_meta {
        void* data = nullptr;
        std::size_t bytes = 0;       ///< mapped length (page-rounded)
        std::size_t file_offset = 0; ///< offset in the spill file
        int pins = 0;
        bool resident = true;
        bool released = false;
    };

    void evict_to_fit_locked(std::size_t incoming_bytes);
    void validate_backing_locked() const;

    std::size_t max_resident_bytes_;
    int fd_ = -1;
    std::string spill_path_;
    std::size_t page_size_ = 4096;
    std::size_t file_extent_ = 0;

    mutable std::mutex mutex_;
    /// Deque: chunk addresses and metadata stay put as chunks are added.
    std::deque<chunk_meta> chunks_;
    std::size_t resident_bytes_ = 0;
    std::uint64_t evictions_ = 0;
    /// Eviction clock hand: chunks age out in allocation order.
    std::size_t next_victim_ = 0;
};

} // namespace fcqss::exec

#endif // FCQSS_EXEC_CHUNK_PAGER_HPP
