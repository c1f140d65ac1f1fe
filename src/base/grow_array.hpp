// fcqss — base/grow_array.hpp
// A growable array of trivially copyable elements whose growth never
// zero-fills and never copies a large block.  Storage below
// grow_array_map_bytes lives on the heap (malloc / realloc), so the many
// tiny arrays of small explorations cost no system call.  At or above it the
// storage is a private anonymous mapping grown with mremap(MREMAP_MAYMOVE),
// which moves page tables instead of bytes; the new tail stays untouched
// until a writer first touches it, so threads that fill disjoint slices of
// a freshly grown tail fault its pages in in parallel.  The exploration
// engines keep their per-level arrays (CSR edges and offsets, per-state
// hashes) in it.  (glibc's realloc alone does not do this: after frees it
// raises its mmap threshold and then copies mid-size blocks on growth.)
//
// Elements past size() are uninitialized; resize_for_overwrite() exposes
// them for the caller to write.  Move-only.
#ifndef FCQSS_BASE_GROW_ARRAY_HPP
#define FCQSS_BASE_GROW_ARRAY_HPP

#include <cstddef>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

namespace fcqss {

/// Capacities of at least this many bytes live in an anonymous mapping.
inline constexpr std::size_t grow_array_map_bytes = std::size_t{1} << 20;

namespace detail {

/// Grows the storage at `data` (`capacity_bytes` bytes, the first
/// `used_bytes` of them live) to at least `needed_bytes`, at least doubling
/// it, and returns the new address; updates `capacity_bytes`.  Throws
/// std::bad_alloc on failure, leaving the old storage intact.
void* grow_storage(void* data, std::size_t used_bytes, std::size_t& capacity_bytes,
                   std::size_t needed_bytes);

/// Frees storage returned by grow_storage (a no-op for null).
void release_storage(void* data, std::size_t capacity_bytes) noexcept;

} // namespace detail

template <typename T>
class grow_array {
    static_assert(std::is_trivially_copyable_v<T>, "growth moves elements bytewise");
    static_assert(alignof(T) <= alignof(std::max_align_t), "malloc alignment");

public:
    grow_array() noexcept = default;
    ~grow_array() { detail::release_storage(data_, capacity_bytes_); }

    grow_array(grow_array&& other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0)),
          capacity_bytes_(std::exchange(other.capacity_bytes_, 0))
    {
    }
    grow_array& operator=(grow_array&& other) noexcept
    {
        if (this != &other) {
            detail::release_storage(data_, capacity_bytes_);
            data_ = std::exchange(other.data_, nullptr);
            size_ = std::exchange(other.size_, 0);
            capacity_bytes_ = std::exchange(other.capacity_bytes_, 0);
        }
        return *this;
    }
    grow_array(const grow_array&) = delete;
    grow_array& operator=(const grow_array&) = delete;

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::size_t capacity() const noexcept
    {
        return capacity_bytes_ / sizeof(T);
    }
    /// Bytes of storage held (the capacity, page-rounded once mapped).
    [[nodiscard]] std::size_t memory_bytes() const noexcept { return capacity_bytes_; }

    [[nodiscard]] T* data() noexcept { return data_; }
    [[nodiscard]] const T* data() const noexcept { return data_; }
    [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
    [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return data_[i]; }
    [[nodiscard]] T* begin() noexcept { return data_; }
    [[nodiscard]] T* end() noexcept { return data_ + size_; }
    [[nodiscard]] const T* begin() const noexcept { return data_; }
    [[nodiscard]] const T* end() const noexcept { return data_ + size_; }

    void push_back(const T& value)
    {
        const T copy = value; // `value` may live in the storage that moves
        if (size_ == capacity()) {
            reserve(size_ + 1);
        }
        data_[size_++] = copy;
    }

    /// Appends `count` elements read from `from`, which must not point into
    /// this array.
    void append(const T* from, std::size_t count)
    {
        if (count == 0) {
            return;
        }
        reserve(size_ + count);
        std::memcpy(data_ + size_, from, count * sizeof(T));
        size_ += count;
    }

    /// Sets the size to `size`.  Elements below the old size keep their
    /// values; new ones are uninitialized and must be written before they
    /// are read.
    void resize_for_overwrite(std::size_t size)
    {
        reserve(size);
        size_ = size;
    }

    /// Empties the array and keeps its storage.
    void clear() noexcept { size_ = 0; }

private:
    void reserve(std::size_t count)
    {
        if (count <= capacity()) {
            return;
        }
        if (count > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
            throw std::bad_alloc();
        }
        data_ = static_cast<T*>(detail::grow_storage(data_, size_ * sizeof(T),
                                                     capacity_bytes_, count * sizeof(T)));
    }

    T* data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_bytes_ = 0;
};

} // namespace fcqss

#endif // FCQSS_BASE_GROW_ARRAY_HPP
