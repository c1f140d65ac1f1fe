// exec/chunk_pager.hpp unit surface: the spill file's lifetime, the
// address-stability invariant (data written before eviction reads back
// bit-identically through the refault path), pin nesting, the clock-hand
// eviction accounting, release() (a no-op the second time, ids never
// reused), and the io_error contract when the spill file is truncated behind
// the pager's back.  The ASan CI job runs this file too, so every
// mmap/munmap/madvise path gets leak- and poison-checked.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <vector>

#include "base/error.hpp"
#include "exec/chunk_pager.hpp"

namespace fcqss::exec {
namespace {

constexpr std::size_t chunk_bytes = 64 * 1024;

void fill_pattern(void* data, std::size_t bytes, std::uint64_t seed)
{
    auto* words = static_cast<std::uint64_t*>(data);
    for (std::size_t i = 0; i < bytes / sizeof(std::uint64_t); ++i) {
        words[i] = seed * 0x9e3779b97f4a7c15ULL + i;
    }
}

bool check_pattern(const void* data, std::size_t bytes, std::uint64_t seed)
{
    const auto* words = static_cast<const std::uint64_t*>(data);
    for (std::size_t i = 0; i < bytes / sizeof(std::uint64_t); ++i) {
        if (words[i] != seed * 0x9e3779b97f4a7c15ULL + i) {
            return false;
        }
    }
    return true;
}

TEST(ChunkPager, SpillsAndRefaultsBitIdentically)
{
    // Budget fits two chunks; ten are allocated, so most must age out.
    chunk_pager pager(2 * chunk_bytes);
    ASSERT_FALSE(pager.spill_path().empty());
    EXPECT_TRUE(std::filesystem::exists(pager.spill_path()));

    std::vector<void*> bases;
    for (std::uint32_t i = 0; i < 10; ++i) {
        const auto [id, data] = pager.allocate(chunk_bytes);
        EXPECT_EQ(id, i);
        fill_pattern(data, chunk_bytes, i);
        bases.push_back(data);
    }
    const chunk_pager_stats stats = pager.stats();
    EXPECT_EQ(stats.chunks, 10u);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_GT(stats.spilled_chunks, 0u);
    EXPECT_GE(stats.spill_file_bytes, 10 * chunk_bytes);
    EXPECT_NO_THROW(pager.validate_backing());

    // The invariant everything upstream leans on: addresses never moved and
    // every chunk — evicted or not — reads back exactly what was written.
    for (std::uint32_t i = 0; i < 10; ++i) {
        EXPECT_TRUE(check_pattern(bases[i], chunk_bytes, i)) << "chunk " << i;
    }
}

TEST(ChunkPager, PinnedChunksSurviveEvictionPressure)
{
    chunk_pager pager(2 * chunk_bytes);
    const auto [pinned_id, pinned_data] = pager.allocate(chunk_bytes);
    pager.pin(pinned_id);
    pager.pin(pinned_id); // pins nest
    fill_pattern(pinned_data, chunk_bytes, 77);

    for (int i = 0; i < 8; ++i) {
        const auto [id, data] = pager.allocate(chunk_bytes);
        fill_pattern(data, chunk_bytes, 100 + static_cast<std::uint64_t>(id));
    }
    EXPECT_TRUE(pager.resident(pinned_id));

    // One unpin leaves the nested pin in place; the second releases it.
    pager.unpin(pinned_id);
    EXPECT_TRUE(pager.resident(pinned_id));
    pager.unpin(pinned_id);
    for (int i = 0; i < 4; ++i) {
        static_cast<void>(pager.allocate(chunk_bytes));
    }
    EXPECT_TRUE(check_pattern(pinned_data, chunk_bytes, 77));
}

TEST(ChunkPager, ReleaseUnmapsSpilledChunksAndEvictionSkipsThem)
{
    chunk_pager pager(2 * chunk_bytes);
    std::vector<void*> bases;
    for (std::uint32_t i = 0; i < 6; ++i) {
        bases.push_back(pager.allocate(chunk_bytes).second);
        fill_pattern(bases.back(), chunk_bytes, i);
    }
    const std::uint64_t extent = pager.stats().spill_file_bytes;
    // Release one evicted and one resident, pinned chunk.
    ASSERT_FALSE(pager.resident(0));
    ASSERT_TRUE(pager.resident(5));
    pager.pin(5);
    pager.release(0);
    pager.release(5);
    pager.release(5); // releasing twice is a no-op
    chunk_pager_stats stats = pager.stats();
    EXPECT_EQ(stats.chunks, 6u);
    EXPECT_EQ(stats.released_chunks, 2u);
    EXPECT_EQ(stats.resident_chunks + stats.spilled_chunks, 4u);
    EXPECT_LE(stats.resident_bytes, 2 * chunk_bytes);
    EXPECT_FALSE(pager.resident(5));
    // The file keeps its extent, so later chunks keep their offsets, and
    // the neighbours of the released chunks still read back through the
    // refault path.
    EXPECT_EQ(stats.spill_file_bytes, extent);
    EXPECT_NO_THROW(pager.validate_backing());
    for (std::uint32_t i = 1; i < 5; ++i) {
        EXPECT_TRUE(check_pattern(bases[i], chunk_bytes, i)) << "chunk " << i;
    }
    // Ids are never reused: the next allocation gets a fresh one.  Eviction
    // pressure after the release never touches released chunks.
    EXPECT_EQ(pager.allocate(chunk_bytes).first, 6u);
    for (int i = 0; i < 3; ++i) {
        fill_pattern(pager.allocate(chunk_bytes).second, chunk_bytes, 50);
    }
    stats = pager.stats();
    EXPECT_EQ(stats.released_chunks, 2u);
    EXPECT_EQ(stats.chunks, 10u);
    EXPECT_LE(stats.resident_bytes, 2 * chunk_bytes);
}

TEST(ChunkPager, ExternalTruncationSurfacesAsIoError)
{
    chunk_pager pager(2 * chunk_bytes);
    for (int i = 0; i < 6; ++i) {
        static_cast<void>(pager.allocate(chunk_bytes));
    }
    EXPECT_NO_THROW(pager.validate_backing());

    // Truncate the spill file behind the pager's back — the next validation
    // (and the next allocation, which validates internally) must throw a
    // typed io_error instead of letting a later read SIGBUS.
    ASSERT_EQ(::truncate(pager.spill_path().c_str(),
                         static_cast<off_t>(chunk_bytes)),
              0);
    EXPECT_THROW(pager.validate_backing(), fcqss::io_error);
    EXPECT_THROW(static_cast<void>(pager.allocate(chunk_bytes)), fcqss::io_error);
}

TEST(ChunkPager, SpillFileIsRemovedOnDestruction)
{
    std::string path;
    {
        chunk_pager pager(chunk_bytes);
        static_cast<void>(pager.allocate(chunk_bytes));
        path = pager.spill_path();
        ASSERT_TRUE(std::filesystem::exists(path));
    }
    EXPECT_FALSE(std::filesystem::exists(path));
}

} // namespace
} // namespace fcqss::exec
