// fcqss — exec/chunk_pager.cpp
#include "exec/chunk_pager.hpp"

#include "base/error.hpp"
#include "obs/obs.hpp"

#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

namespace fcqss::exec {

namespace {

[[noreturn]] void throw_errno(const char* what)
{
    throw io_error(std::string("chunk_pager: ") + what + ": " +
                   std::strerror(errno));
}

std::string temp_directory()
{
    if (const char* tmp = std::getenv("TMPDIR"); tmp != nullptr && *tmp != '\0')
        return tmp;
    return "/tmp";
}

} // namespace

chunk_pager::chunk_pager(std::size_t max_resident_bytes)
    : max_resident_bytes_(max_resident_bytes)
{
    assert(max_resident_bytes_ != 0 && "chunk_pager needs a byte budget");
    const long page = ::sysconf(_SC_PAGESIZE);
    if (page > 0) page_size_ = static_cast<std::size_t>(page);

    std::string path = temp_directory() + "/fcqss-spill-XXXXXX";
    fd_ = ::mkstemp(path.data());
    if (fd_ < 0) throw_errno("mkstemp");
    spill_path_ = std::move(path);
}

chunk_pager::~chunk_pager()
{
    for (const auto& chunk : chunks_) {
        if (chunk.data != nullptr) ::munmap(chunk.data, chunk.bytes);
    }
    ::close(fd_);
    ::unlink(spill_path_.c_str());
}

std::pair<std::uint32_t, void*> chunk_pager::allocate(std::size_t bytes)
{
    if (bytes == 0) bytes = 1;
    std::lock_guard lock(mutex_);
    const auto id = static_cast<std::uint32_t>(chunks_.size());
    validate_backing_locked();
    const std::size_t rounded =
        (bytes + page_size_ - 1) / page_size_ * page_size_;
    evict_to_fit_locked(rounded);

    const std::size_t offset = file_extent_;
    if (::ftruncate(fd_, static_cast<off_t>(offset + rounded)) != 0)
        throw_errno("ftruncate");
    void* data = ::mmap(nullptr, rounded, PROT_READ | PROT_WRITE, MAP_SHARED,
                        fd_, static_cast<off_t>(offset));
    if (data == MAP_FAILED) throw_errno("mmap");
    file_extent_ = offset + rounded;

    chunk_meta meta;
    meta.data = data;
    meta.bytes = rounded;
    meta.file_offset = offset;
    chunks_.push_back(meta);
    resident_bytes_ += rounded;
    return {id, data};
}

void chunk_pager::evict_to_fit_locked(std::size_t incoming_bytes)
{
    // Sweep the clock hand over chunks in allocation order; wrap once.  In
    // steady state the hand sits just past the last eviction, so each call
    // does O(evicted + pinned skipped) work.
    std::size_t examined = 0;
    const std::size_t n = chunks_.size();
    while (resident_bytes_ + incoming_bytes > max_resident_bytes_ &&
           examined < n) {
        if (next_victim_ >= n) next_victim_ = 0;
        chunk_meta& victim = chunks_[next_victim_];
        ++next_victim_;
        ++examined;
        if (!victim.resident || victim.pins > 0) continue;
        ::msync(victim.data, victim.bytes, MS_ASYNC);
        ::madvise(victim.data, victim.bytes, MADV_DONTNEED);
        victim.resident = false;
        resident_bytes_ -= victim.bytes;
        ++evictions_;
    }
}

void chunk_pager::release(std::uint32_t id)
{
    std::lock_guard lock(mutex_);
    chunk_meta& chunk = chunks_[id];
    if (chunk.released) return;
    if (chunk.resident) resident_bytes_ -= chunk.bytes;
    ::munmap(chunk.data, chunk.bytes);
    // Give the file range's blocks back too (TMPDIR is often tmpfs, where
    // they are memory); the extent stays, so offsets never shift.  A
    // filesystem without hole punching just keeps the bytes.
    static_cast<void>(::fallocate(fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                                  static_cast<off_t>(chunk.file_offset),
                                  static_cast<off_t>(chunk.bytes)));
    chunk.data = nullptr;
    chunk.pins = 0;
    chunk.resident = false;
    chunk.released = true;
}

void chunk_pager::pin(std::uint32_t id)
{
    std::lock_guard lock(mutex_);
    ++chunks_[id].pins;
}

void chunk_pager::unpin(std::uint32_t id)
{
    std::lock_guard lock(mutex_);
    --chunks_[id].pins;
}

bool chunk_pager::resident(std::uint32_t id) const
{
    std::lock_guard lock(mutex_);
    return chunks_[id].resident;
}

void chunk_pager::validate_backing() const
{
    std::lock_guard lock(mutex_);
    validate_backing_locked();
}

void chunk_pager::validate_backing_locked() const
{
    struct stat st {};
    if (::fstat(fd_, &st) != 0) throw_errno("fstat");
    if (static_cast<std::size_t>(st.st_size) < file_extent_)
        throw io_error("chunk_pager: spill file " + spill_path_ +
                       " truncated externally: " + std::to_string(st.st_size) +
                       " < " + std::to_string(file_extent_) + " bytes");
}

chunk_pager_stats chunk_pager::stats() const
{
    std::lock_guard lock(mutex_);
    chunk_pager_stats out;
    out.chunks = chunks_.size();
    for (const auto& chunk : chunks_)
        (chunk.released   ? out.released_chunks
         : chunk.resident ? out.resident_chunks
                          : out.spilled_chunks) += 1;
    out.evictions = evictions_;
    out.spill_file_bytes = file_extent_;
    out.resident_bytes = resident_bytes_;
    return out;
}

void chunk_pager::flush_obs() const
{
    if (!obs::stats_enabled()) return;
    const chunk_pager_stats s = stats();
    obs::get_counter("pn.mem.chunks", "chunks").add(s.chunks);
    obs::get_counter("pn.mem.resident_chunks", "chunks").add(s.resident_chunks);
    obs::get_counter("pn.mem.spilled_chunks", "chunks").add(s.spilled_chunks);
    obs::get_counter("pn.mem.evictions", "evictions").add(s.evictions);
    obs::get_counter("pn.mem.spill_bytes", "bytes").add(s.spill_file_bytes);
    struct rusage usage {};
    if (::getrusage(RUSAGE_SELF, &usage) == 0) {
        obs::get_gauge("pn.mem.peak_rss_bytes", "bytes")
            .set(static_cast<double>(usage.ru_maxrss) * 1024.0);
    }
}

} // namespace fcqss::exec
