#include "pn/marking_store.hpp"

#include "exec/chunk_pager.hpp"

#include <algorithm>
#include <cassert>

namespace fcqss::pn {

namespace {

constexpr std::size_t initial_table_capacity = 64;
constexpr std::size_t target_chunk_bytes = std::size_t{1} << 18; // 256 KiB

std::uint64_t splitmix64(std::uint64_t x) noexcept
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

template <typename T>
void encode_row(const std::int64_t* in, T* out, std::size_t count) noexcept
{
    for (std::size_t i = 0; i < count; ++i) {
        out[i] = static_cast<T>(in[i]);
    }
}

template <typename T>
void decode_row(const T* in, std::int64_t* out, std::size_t count) noexcept
{
    for (std::size_t i = 0; i < count; ++i) {
        out[i] = static_cast<std::int64_t>(in[i]);
    }
}

/// Branch-free so it vectorizes: a candidate count above T's range differs
/// from every stored count in some bit, so no fit check is needed.
template <typename T>
bool equal_decoded(const T* stored, const std::int64_t* candidate,
                   std::size_t count) noexcept
{
    std::uint64_t diff = 0;
    for (std::size_t i = 0; i < count; ++i) {
        diff |= static_cast<std::uint64_t>(candidate[i]) ^
                static_cast<std::uint64_t>(static_cast<std::int64_t>(stored[i]));
    }
    return diff == 0;
}

} // namespace

unsigned row_count_bytes(const std::int64_t* tokens, std::size_t count) noexcept
{
    // OR of the counts bounds the maximum bit by bit; a negative count sets
    // the top bit and lands on 8 bytes.
    std::uint64_t all = 0;
    for (std::size_t i = 0; i < count; ++i) {
        all |= static_cast<std::uint64_t>(tokens[i]);
    }
    return count_bytes_for(static_cast<std::int64_t>(all));
}

marking_store::marking_store(std::size_t width)
    : marking_store(width, nullptr)
{
}

namespace detail {

hash_index::hash_index()
    : table_(initial_table_capacity, invalid_state), mask_(initial_table_capacity - 1)
{
}

bool hash_index::insert(std::size_t slot, std::uint64_t hash)
{
    table_[slot] = static_cast<state_id>(hashes_.size());
    hashes_.push_back(hash);
    // Keep the load factor below ~0.7 (power-of-two capacity, linear
    // probes).
    if (size() * 10 < (mask_ + 1) * 7) {
        return false;
    }
    rebuild_table((mask_ + 1) * 2);
    return true;
}

void hash_index::rebuild()
{
    std::size_t capacity = initial_table_capacity;
    while (size() * 10 >= capacity * 7) {
        capacity *= 2;
    }
    rebuild_table(capacity);
}

void hash_index::rebuild_table(std::size_t capacity)
{
    table_.assign(capacity, invalid_state);
    mask_ = capacity - 1;
    for (state_id id = 0; id < static_cast<state_id>(size()); ++id) {
        std::size_t slot = hashes_[id] & mask_;
        while (table_[slot] != invalid_state) {
            slot = (slot + 1) & mask_;
        }
        table_[slot] = id;
    }
}

std::size_t hash_index::memory_bytes() const noexcept
{
    return hashes_.size() * sizeof(std::uint64_t) + table_.size() * sizeof(state_id);
}

} // namespace detail

marking_store::marking_store(std::size_t width,
                             std::shared_ptr<exec::chunk_pager> pager,
                             unsigned count_bytes)
    : width_(width), pager_(std::move(pager))
{
    assert(count_bytes == 1 || count_bytes == 2 || count_bytes == 4 || count_bytes == 8);
    set_count_bytes(count_bytes);
}

marking_store::~marking_store() = default;
marking_store::marking_store(marking_store&&) noexcept = default;
marking_store& marking_store::operator=(marking_store&&) noexcept = default;

void marking_store::set_count_bytes(unsigned count_bytes) noexcept
{
    count_bytes_ = count_bytes;
    row_bytes_ = width_ * count_bytes;
    // The largest power of two of rows that fits the target chunk (at least
    // one row; 2^16 rows of nothing for a place-less net).
    const std::size_t rows =
        row_bytes_ == 0 ? std::size_t{1} << 16
                        : std::max<std::size_t>(1, target_chunk_bytes / row_bytes_);
    chunk_shift_ = 0;
    while ((std::size_t{2} << chunk_shift_) <= rows) {
        ++chunk_shift_;
    }
}

std::uint64_t marking_store::component_mix(std::size_t place, std::int64_t count) noexcept
{
    return splitmix64(static_cast<std::uint64_t>(place) * 0x9e3779b97f4a7c15ULL ^
                      static_cast<std::uint64_t>(count));
}

std::uint64_t marking_store::hash_tokens(const std::int64_t* tokens,
                                         std::size_t count) noexcept
{
    std::uint64_t hash = 0x2545f4914f6cdd1dULL ^ count;
    for (std::size_t i = 0; i < count; ++i) {
        hash ^= component_mix(i, tokens[i]);
    }
    return hash;
}

std::pair<state_id, bool> marking_store::intern(const std::int64_t* tokens,
                                                std::uint64_t hash,
                                                std::size_t max_states)
{
    // Probe against rows decoded on the fly; the candidate is encoded only
    // once it is known to be fresh and within budget.
    const auto [slot, found] = with_count_type(count_bytes_, [&]<typename T>(T) {
        return index_.probe(
            hash,
            [&](state_id id) {
                return equal_decoded(reinterpret_cast<const T*>(row(id)), tokens, width_);
            },
            stats_.probes);
    });
    if (found != invalid_state) {
        ++stats_.dedup_hits;
        return {found, false};
    }
    if (size() >= max_states) {
        ++stats_.budget_rejects;
        return {invalid_state, false};
    }
    if (const unsigned needed = row_count_bytes(tokens, width_); needed > count_bytes_) {
        widen(needed);
    }
    const state_id id = insert_at(slot, hash);
    with_count_type(count_bytes_, [&]<typename T>(T) {
        encode_row(tokens, reinterpret_cast<T*>(row(id)), width_);
    });
    return {id, true};
}

state_id marking_store::insert_at(std::size_t slot, std::uint64_t hash)
{
    ++stats_.inserts;
    const state_id id = static_cast<state_id>(size());
    if ((id & ((std::size_t{1} << chunk_shift_) - 1)) == 0) {
        allocate_chunk();
    }
    if (index_.insert(slot, hash)) {
        ++stats_.resizes;
    }
    return id;
}

state_id marking_store::find(const std::int64_t* candidate,
                             std::uint64_t hash) const noexcept
{
    std::uint64_t probes = 0; // lookups are not dedup work
    return with_count_type(count_bytes_, [&]<typename T>(T) {
        return index_
            .probe(
                hash,
                [&](state_id id) {
                    return equal_decoded(reinterpret_cast<const T*>(row(id)), candidate,
                                         width_);
                },
                probes)
            .second;
    });
}

std::vector<std::int64_t> marking_store::tokens(state_id id) const
{
    std::vector<std::int64_t> out(width_);
    load(id, out.data());
    return out;
}

void marking_store::load(state_id id, std::int64_t* out) const noexcept
{
    with_count_type(count_bytes_, [&]<typename T>(T) {
        decode_row(reinterpret_cast<const T*>(row(id)), out, width_);
    });
}

void marking_store::widen(unsigned count_bytes)
{
    if (count_bytes <= count_bytes_) {
        return;
    }
    ++stats_.widenings;
    const unsigned old_bytes = count_bytes_;
    const std::size_t old_row_bytes = row_bytes_;
    const unsigned old_shift = chunk_shift_;
    std::vector<std::byte*> old_rows = std::move(chunk_rows_);
    std::vector<std::unique_ptr<std::byte[]>> old_owned = std::move(owned_chunks_);
    std::vector<std::uint32_t> old_ids = std::move(pager_chunk_ids_);
    if (pager_ != nullptr && !old_ids.empty()) {
        pager_->unpin(old_ids.back());
    }
    const auto release_old = [&](std::size_t chunk) {
        if (pager_ != nullptr) {
            pager_->release(old_ids[chunk]);
        } else {
            old_owned[chunk].reset();
        }
    };
    set_count_bytes(count_bytes);

    // Copy chunk by chunk, releasing each old chunk as soon as its last row
    // has moved, so the transient footprint is the new arena plus at most
    // one old chunk.
    const std::size_t count = size();
    const std::size_t rows_per_chunk = std::size_t{1} << chunk_shift_;
    std::vector<std::int64_t> row_buffer(width_);
    std::size_t released = 0;
    for (std::size_t begin = 0; begin < count; begin += rows_per_chunk) {
        allocate_chunk();
        const std::size_t end = std::min(count, begin + rows_per_chunk);
        for (std::size_t id = begin; id < end; ++id) {
            const std::size_t old_index = id & ((std::size_t{1} << old_shift) - 1);
            const std::byte* from = old_rows[id >> old_shift] + old_index * old_row_bytes;
            std::byte* to = row(static_cast<state_id>(id));
            with_count_type(old_bytes, [&]<typename S>(S) {
                decode_row(reinterpret_cast<const S*>(from), row_buffer.data(), width_);
            });
            with_count_type(count_bytes_, [&]<typename T>(T) {
                encode_row(row_buffer.data(), reinterpret_cast<T*>(to), width_);
            });
        }
        while (released < old_rows.size() && ((released + 1) << old_shift) <= end) {
            release_old(released++);
        }
    }
    while (released < old_rows.size()) {
        release_old(released++);
    }
}

void marking_store::allocate_chunk()
{
    const std::size_t bytes = (std::size_t{1} << chunk_shift_) * row_bytes_;
    if (pager_ != nullptr) {
        // Keep exactly the bump chunk being filled pinned: the frontier of
        // writes (and the densest probe target) stays resident whatever the
        // budget does to colder chunks.
        if (!pager_chunk_ids_.empty()) {
            pager_->unpin(pager_chunk_ids_.back());
        }
        const auto [id, data] = pager_->allocate(bytes);
        pager_->pin(id);
        pager_chunk_ids_.push_back(id);
        chunk_rows_.push_back(static_cast<std::byte*>(data));
    } else {
        owned_chunks_.emplace_back(new std::byte[bytes]);
        chunk_rows_.push_back(owned_chunks_.back().get());
    }
}

void marking_store::start_bulk_build(std::size_t count)
{
    assert(size() == 0 && "bulk build requires an empty store");
    grow_bulk_build(count);
}

void marking_store::grow_bulk_build(std::size_t count)
{
    assert(count >= size());
    const std::size_t rows_per_chunk = std::size_t{1} << chunk_shift_;
    const std::size_t chunk_count = (count + rows_per_chunk - 1) / rows_per_chunk;
    chunk_rows_.reserve(chunk_count);
    while (chunk_rows_.size() < chunk_count) {
        allocate_chunk();
    }
    index_.resize_for_overwrite(count);
}

void marking_store::finish_bulk_build()
{
    ++stats_.resizes;
    index_.rebuild();
}

std::size_t marking_store::arena_bytes() const noexcept
{
    return chunk_rows_.size() * (std::size_t{1} << chunk_shift_) * row_bytes_;
}

std::size_t marking_store::memory_bytes() const noexcept
{
    return arena_bytes() + index_.memory_bytes();
}

} // namespace fcqss::pn
