// grow_array: the growable array behind the engines' CSR edges, offsets and
// per-state hashes.  Below grow_array_map_bytes its storage is on the heap;
// at or above it, an anonymous mapping grown with mremap.  ASan cannot see
// inside a mapping, so these checks are what guard that path: every element
// must survive the heap-to-mapping move and each mapping growth, resizing
// for overwrite must keep the prefix, and clear / move must leave usable
// arrays.  A 12-byte element covers sizes that do not divide the threshold.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "base/grow_array.hpp"

namespace fcqss {
namespace {

struct triple {
    std::uint32_t a;
    std::uint32_t b;
    std::uint32_t c;
};
static_assert(sizeof(triple) == 12);

triple triple_at(std::size_t i)
{
    const auto v = static_cast<std::uint32_t>(i);
    return {v, v ^ 0x5a5a5a5au, v * 2654435761u};
}

bool same(const triple& x, const triple& y)
{
    return x.a == y.a && x.b == y.b && x.c == y.c;
}

/// Elements of T that fit below the threshold, rounded down.
template <typename T>
constexpr std::size_t threshold_elements = grow_array_map_bytes / sizeof(T);

TEST(grow_array, push_back_keeps_every_element_across_the_mapping_and_its_growths)
{
    grow_array<std::uint64_t> array;
    // 8x the threshold: the heap-to-mapping move plus three mapping growths.
    const std::size_t count = 8 * threshold_elements<std::uint64_t> + 3;
    std::size_t growths = 0;
    std::size_t capacity = array.capacity();
    for (std::size_t i = 0; i < count; ++i) {
        array.push_back(i * 0x9e3779b97f4a7c15ULL);
        if (array.capacity() != capacity) {
            ++growths;
            capacity = array.capacity();
        }
    }
    ASSERT_EQ(array.size(), count);
    EXPECT_GE(array.memory_bytes(), count * sizeof(std::uint64_t));
    EXPECT_GE(growths, 4u);
    for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(array[i], i * 0x9e3779b97f4a7c15ULL) << i;
    }
}

TEST(grow_array, push_back_of_an_own_element_survives_the_growth)
{
    grow_array<std::uint64_t> array;
    array.push_back(41);
    for (std::size_t i = 0; i < 2 * threshold_elements<std::uint64_t>; ++i) {
        array.push_back(array[0]);
    }
    for (const std::uint64_t value : array) {
        ASSERT_EQ(value, 41u);
    }
}

TEST(grow_array, append_keeps_every_element_across_the_mapping_and_its_growths)
{
    grow_array<triple> array;
    std::vector<triple> block(1000);
    std::size_t next = 0;
    while (array.size() < 5 * threshold_elements<triple>) {
        for (triple& t : block) {
            t = triple_at(next++);
        }
        array.append(block.data(), block.size());
    }
    array.append(block.data(), 0);
    ASSERT_EQ(array.size(), next);
    for (std::size_t i = 0; i < next; ++i) {
        ASSERT_TRUE(same(array[i], triple_at(i))) << i;
    }
}

TEST(grow_array, resize_for_overwrite_keeps_the_prefix)
{
    grow_array<triple> array;
    for (std::size_t i = 0; i < 100; ++i) {
        array.push_back(triple_at(i));
    }
    // Heap growth, the move into a mapping, and a mapping growth.
    for (const std::size_t size : {std::size_t{5000}, 3 * threshold_elements<triple>,
                                   7 * threshold_elements<triple>}) {
        const std::size_t before = array.size();
        array.resize_for_overwrite(size);
        ASSERT_EQ(array.size(), size);
        for (std::size_t i = 0; i < before; ++i) {
            ASSERT_TRUE(same(array[i], triple_at(i))) << size << ", " << i;
        }
        for (std::size_t i = before; i < size; ++i) {
            array[i] = triple_at(i);
        }
    }
    // Shrinking keeps the prefix and the storage.
    const std::size_t bytes = array.memory_bytes();
    array.resize_for_overwrite(10);
    EXPECT_EQ(array.memory_bytes(), bytes);
    for (std::size_t i = 0; i < 10; ++i) {
        ASSERT_TRUE(same(array[i], triple_at(i)));
    }
}

TEST(grow_array, clear_keeps_the_storage_and_regrows)
{
    for (const std::size_t count :
         {std::size_t{10}, 3 * threshold_elements<std::uint64_t>}) {
        grow_array<std::uint64_t> array;
        for (std::size_t i = 0; i < count; ++i) {
            array.push_back(i);
        }
        const std::size_t bytes = array.memory_bytes();
        array.clear();
        EXPECT_TRUE(array.empty());
        EXPECT_EQ(array.memory_bytes(), bytes);
        for (std::size_t i = 0; i < 2 * count; ++i) {
            array.push_back(3 * i);
        }
        ASSERT_EQ(array.size(), 2 * count);
        for (std::size_t i = 0; i < 2 * count; ++i) {
            ASSERT_EQ(array[i], 3 * i) << count << ", " << i;
        }
    }
}

TEST(grow_array, a_move_leaves_the_source_empty)
{
    for (const std::size_t count :
         {std::size_t{10}, 2 * threshold_elements<std::uint64_t>}) {
        grow_array<std::uint64_t> source;
        for (std::size_t i = 0; i < count; ++i) {
            source.push_back(i + 7);
        }
        grow_array<std::uint64_t> moved(std::move(source));
        EXPECT_EQ(source.size(), 0u);
        EXPECT_EQ(source.memory_bytes(), 0u);
        EXPECT_EQ(source.data(), nullptr);
        ASSERT_EQ(moved.size(), count);

        grow_array<std::uint64_t> assigned;
        assigned.push_back(1);
        assigned = std::move(moved);
        EXPECT_EQ(moved.size(), 0u);
        EXPECT_EQ(moved.data(), nullptr);
        ASSERT_EQ(assigned.size(), count);
        for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(assigned[i], i + 7);
        }
        // The moved-from arrays are empty, not broken.
        source.push_back(5);
        moved.push_back(6);
        EXPECT_EQ(source[0], 5u);
        EXPECT_EQ(moved[0], 6u);
    }
}

TEST(grow_array, sizes_at_the_threshold_and_one_element_either_side)
{
    // The fewest triples whose bytes reach the threshold.
    const std::size_t first_mapped =
        (grow_array_map_bytes + sizeof(triple) - 1) / sizeof(triple);
    for (const std::size_t size : {first_mapped - 1, first_mapped, first_mapped + 1}) {
        grow_array<triple> exact;
        exact.resize_for_overwrite(size);
        for (std::size_t i = 0; i < size; ++i) {
            exact[i] = triple_at(i);
        }
        // A first allocation is exactly the request: on the heap below the
        // threshold, in a mapping from it on.
        EXPECT_EQ(exact.memory_bytes() >= grow_array_map_bytes, size >= first_mapped)
            << size;
        grow_array<triple> pushed;
        for (std::size_t i = 0; i < size; ++i) {
            pushed.push_back(triple_at(i));
        }
        for (grow_array<triple>* array : {&exact, &pushed}) {
            ASSERT_EQ(array->size(), size);
            EXPECT_GE(array->memory_bytes(), size * sizeof(triple));
            // Grow once more and check nothing moved wrongly.
            array->push_back(triple_at(size));
            for (std::size_t i = 0; i <= size; ++i) {
                ASSERT_TRUE(same((*array)[i], triple_at(i))) << size << ", " << i;
            }
        }
    }
}

} // namespace
} // namespace fcqss
