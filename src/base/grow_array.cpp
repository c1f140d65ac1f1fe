#include "base/grow_array.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>

namespace fcqss::detail {

namespace {

constexpr std::size_t min_capacity_bytes = 64;

std::size_t page_size() noexcept
{
    static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    return page;
}

} // namespace

void* grow_storage(void* data, std::size_t used_bytes, std::size_t& capacity_bytes,
                   std::size_t needed_bytes)
{
    std::size_t bytes = std::max({needed_bytes, 2 * capacity_bytes, min_capacity_bytes});
    if (bytes < grow_array_map_bytes) {
        void* grown = std::realloc(data, bytes);
        if (grown == nullptr) {
            throw std::bad_alloc();
        }
        capacity_bytes = bytes;
        return grown;
    }
    const std::size_t page = page_size();
    bytes = (bytes + page - 1) / page * page;
    void* grown = nullptr;
    if (capacity_bytes >= grow_array_map_bytes) {
        grown = ::mremap(data, capacity_bytes, bytes, MREMAP_MAYMOVE);
    } else {
        grown = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
        if (grown != MAP_FAILED) {
            if (used_bytes != 0) {
                std::memcpy(grown, data, used_bytes);
            }
            std::free(data);
        }
    }
    if (grown == MAP_FAILED) {
        throw std::bad_alloc();
    }
    capacity_bytes = bytes;
    return grown;
}

void release_storage(void* data, std::size_t capacity_bytes) noexcept
{
    if (capacity_bytes >= grow_array_map_bytes) {
        ::munmap(data, capacity_bytes);
    } else {
        std::free(data);
    }
}

} // namespace fcqss::detail
