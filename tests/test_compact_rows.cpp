// Compact marking rows: marking_store keeps each token count in 1, 2, 4 or 8
// bytes and widens in place the first time a marking about to be interned
// has a count the width cannot hold.
//
// Store level: encode/decode round trips at every width, widen() keeping
// ids, hashes and find(), find() of a marking above the current width
// returning invalid_state without widening, and widening under a pager
// budget that evicts.
//
// Engine level: hand-built nets whose counts cross 255, 65,535 and 2^32 in
// the middle of the run (plus one whose root is above 2^32) are explored by
// the sequential engine and by the leveled parallel engine at 1, 2, 4 and 8
// threads, with and without a --max-bytes budget that really spills,
// unreduced and under the deadlock stubborn reduction.  Every run
// must match explore_reference / the sequential engine bit for bit: ids,
// edges, decoded tokens and truncation.  pn.store.widenings, pn.store.chunks
// and the pn.store.count_bytes gauge are pinned: the parallel engine keeps
// every row once, in its result store, so it widens and allocates exactly
// like the sequential engine.  The TSan and ASan CI jobs run this file, so
// the widening between phases A and B doubles as a race net.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exec/chunk_pager.hpp"
#include "obs/obs.hpp"
#include "pn/marking_store.hpp"
#include "pn/parallel_explore.hpp"
#include "pn/reachability.hpp"
#include "pn/state_space.hpp"
#include "test_util.hpp"

namespace fcqss::pn {
namespace {

using testutil::counter_net;

std::uint64_t hash_of(const std::vector<std::int64_t>& tokens)
{
    return marking_store::hash_tokens(tokens.data(), tokens.size());
}

// ----------------------------------------------------------- store level --

TEST(compact_store, count_bytes_for_picks_the_narrowest_width)
{
    EXPECT_EQ(count_bytes_for(0), 1u);
    EXPECT_EQ(count_bytes_for(255), 1u);
    EXPECT_EQ(count_bytes_for(256), 2u);
    EXPECT_EQ(count_bytes_for(65535), 2u);
    EXPECT_EQ(count_bytes_for(65536), 4u);
    EXPECT_EQ(count_bytes_for(4294967295LL), 4u);
    EXPECT_EQ(count_bytes_for(4294967296LL), 8u);
    EXPECT_EQ(count_bytes_for(-1), 8u);
    const std::vector<std::int64_t> row{3, 300, 7};
    EXPECT_EQ(row_count_bytes(row.data(), row.size()), 2u);
    EXPECT_EQ(row_count_bytes(row.data(), 0), 1u);
}

TEST(compact_store, round_trips_the_extremes_of_every_width)
{
    const std::int64_t big = std::numeric_limits<std::int64_t>::max();
    const std::int64_t small = std::numeric_limits<std::int64_t>::min();
    const struct {
        unsigned bytes;
        std::vector<std::vector<std::int64_t>> rows;
    } cases[] = {
        {1, {{0, 1, 255}, {255, 255, 255}, {0, 0, 0}}},
        {2, {{0, 256, 65535}, {65535, 1, 0}, {255, 255, 255}}},
        {4, {{0, 65536, 4294967295LL}, {4294967295LL, 4294967295LL, 1}}},
        {8, {{big, small, -1}, {4294967296LL, 0, -5}, {0, 0, 0}}},
    };
    for (const auto& c : cases) {
        marking_store store(3, nullptr, c.bytes);
        for (std::size_t i = 0; i < c.rows.size(); ++i) {
            const auto [id, fresh] = store.intern(c.rows[i].data(), hash_of(c.rows[i]));
            ASSERT_TRUE(fresh);
            ASSERT_EQ(id, i);
        }
        EXPECT_EQ(store.count_bytes(), c.bytes) << "no widening within the width";
        EXPECT_EQ(store.stats().widenings, 0u);
        std::vector<std::int64_t> loaded(3);
        for (std::size_t i = 0; i < c.rows.size(); ++i) {
            const auto id = static_cast<state_id>(i);
            EXPECT_EQ(store.tokens(id), c.rows[i]) << c.bytes << " bytes, row " << i;
            store.load(id, loaded.data());
            EXPECT_EQ(loaded, c.rows[i]);
            EXPECT_EQ(store.find(c.rows[i].data(), hash_of(c.rows[i])), id);
            // Interning again dedups against the encoded row.
            EXPECT_EQ(store.intern(c.rows[i].data(), hash_of(c.rows[i])).second, false);
        }
        EXPECT_EQ(store.arena_bytes() % (3 * c.bytes), 0u);
    }
}

/// Interns `count` distinct 5-place markings with counts below 200.
marking_store filled_store(std::size_t count, std::shared_ptr<exec::chunk_pager> pager)
{
    marking_store store(5, std::move(pager));
    for (std::size_t i = 0; i < count; ++i) {
        const std::vector<std::int64_t> row{static_cast<std::int64_t>(i % 200),
                                            static_cast<std::int64_t>(i / 200 % 200),
                                            static_cast<std::int64_t>(i / 40000), 0, 7};
        store.intern(row.data(), hash_of(row));
    }
    return store;
}

void expect_rows_unchanged(const marking_store& store,
                           const std::vector<std::vector<std::int64_t>>& rows,
                           const std::vector<std::uint64_t>& hashes)
{
    ASSERT_EQ(store.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto id = static_cast<state_id>(i);
        ASSERT_EQ(store.tokens(id), rows[i]) << "row " << i;
        ASSERT_EQ(store.stored_hash(id), hashes[i]) << "row " << i;
        ASSERT_EQ(store.find(rows[i].data(), hashes[i]), id) << "row " << i;
    }
}

TEST(compact_store, widen_keeps_ids_hashes_and_lookups)
{
    marking_store store = filled_store(20000, nullptr);
    ASSERT_EQ(store.count_bytes(), 1u);
    std::vector<std::vector<std::int64_t>> rows;
    std::vector<std::uint64_t> hashes;
    for (state_id id = 0; id < store.size(); ++id) {
        rows.push_back(store.tokens(id));
        hashes.push_back(store.stored_hash(id));
    }
    const std::size_t narrow_arena = store.arena_bytes();
    for (const unsigned bytes : {2u, 4u, 8u}) {
        store.widen(bytes);
        EXPECT_EQ(store.count_bytes(), bytes);
        expect_rows_unchanged(store, rows, hashes);
    }
    EXPECT_EQ(store.stats().widenings, 3u);
    EXPECT_GE(store.arena_bytes(), rows.size() * 5 * 8);
    EXPECT_LT(narrow_arena, rows.size() * 5 * 2);
    // Narrower or equal requests are no-ops.
    store.widen(2);
    store.widen(8);
    EXPECT_EQ(store.count_bytes(), 8u);
    EXPECT_EQ(store.stats().widenings, 3u);
    // The widened store keeps interning past the old chunk boundaries.
    const std::vector<std::int64_t> fresh{-3, 1, 2, 3, 4};
    EXPECT_EQ(store.intern(fresh.data(), hash_of(fresh)).first, 20000u);
    EXPECT_EQ(store.tokens(20000), fresh);
}

TEST(compact_store, intern_widens_only_when_a_fresh_marking_needs_it)
{
    marking_store store(2);
    const std::vector<std::int64_t> a{1, 2};
    const std::vector<std::int64_t> b{70000, 2};
    const std::vector<std::int64_t> c{5000000000LL, 0};
    store.intern(a.data(), hash_of(a));
    // A budget-rejected marking never widens the store.
    EXPECT_EQ(store.intern(b.data(), hash_of(b), 1).first, invalid_state);
    EXPECT_EQ(store.count_bytes(), 1u);
    EXPECT_EQ(store.intern(b.data(), hash_of(b)).first, 1u);
    EXPECT_EQ(store.count_bytes(), 4u);
    EXPECT_EQ(store.intern(c.data(), hash_of(c)).first, 2u);
    EXPECT_EQ(store.count_bytes(), 8u);
    EXPECT_EQ(store.stats().widenings, 2u);
    EXPECT_EQ(store.tokens(0), a);
    EXPECT_EQ(store.tokens(1), b);
    EXPECT_EQ(store.tokens(2), c);
}

TEST(compact_store, find_of_a_marking_above_the_width_is_absent_and_does_not_widen)
{
    marking_store store(3);
    const std::vector<std::int64_t> low{4, 44, 0};
    store.intern(low.data(), hash_of(low));
    // 300 does not fit a byte, and 300 & 0xff == 44: the truncated encoding
    // of {4, 300, 0} would equal the stored row.  It must not be found.
    const std::vector<std::int64_t> high{4, 300, 0};
    EXPECT_EQ(store.find(high.data(), hash_of(high)), invalid_state);
    const std::vector<std::int64_t> negative{4, -212, 0}; // -212 & 0xff == 44
    EXPECT_EQ(store.find(negative.data(), hash_of(negative)), invalid_state);
    // Probe with the stored row's hash so the row comparison itself runs.
    EXPECT_EQ(store.find(high.data(), hash_of(low)), invalid_state);
    EXPECT_EQ(store.find(negative.data(), hash_of(low)), invalid_state);
    EXPECT_EQ(store.find(low.data(), hash_of(low)), 0u);
    EXPECT_EQ(store.count_bytes(), 1u);
    EXPECT_EQ(store.stats().widenings, 0u);
    EXPECT_EQ(store.size(), 1u);
}

TEST(compact_store, widening_under_a_spilling_pager_releases_the_old_chunks)
{
    const auto pager = std::make_shared<exec::chunk_pager>(64 * 1024);
    marking_store store = filled_store(300000, pager);
    std::vector<std::vector<std::int64_t>> rows;
    std::vector<std::uint64_t> hashes;
    for (state_id id = 0; id < store.size(); ++id) {
        rows.push_back(store.tokens(id));
        hashes.push_back(store.stored_hash(id));
    }
    const std::size_t narrow_chunks = store.chunk_count();
    ASSERT_GT(narrow_chunks, 2u);
    EXPECT_GT(pager->stats().evictions, 0u);

    const std::vector<std::int64_t> wide{1000, 0, 0, 0, 0};
    EXPECT_EQ(store.intern(wide.data(), hash_of(wide)).first, 300000u);
    EXPECT_EQ(store.count_bytes(), 2u);
    rows.push_back(wide);
    hashes.push_back(hash_of(wide));
    expect_rows_unchanged(store, rows, hashes);

    const exec::chunk_pager_stats stats = pager->stats();
    EXPECT_EQ(stats.released_chunks, narrow_chunks);
    EXPECT_EQ(stats.chunks, narrow_chunks + store.chunk_count());
    EXPECT_EQ(stats.resident_chunks + stats.spilled_chunks, store.chunk_count());
    EXPECT_NO_THROW(pager->validate_backing());
}

// ---------------------------------------------------------- engine level --

struct widening_case {
    const char* name;
    petri_net net;
    std::int64_t cap;            ///< max_tokens_per_place
    unsigned final_bytes;        ///< count width at the end of the full run
    std::uint64_t seq_widenings; ///< pinned pn.store.widenings, sequential

    reachability_options seq(std::size_t max_states, std::size_t max_bytes = 0) const
    {
        return {.max_markings = max_states, .max_tokens_per_place = cap,
                .max_bytes = max_bytes};
    }

    reachability_options par(std::size_t threads, std::size_t max_states,
                             std::size_t max_bytes = 0) const
    {
        return {.max_markings = max_states, .max_tokens_per_place = cap,
                .max_bytes = max_bytes, .threads = threads};
    }
};

/// The widening nets, with `toggles` toggles each (2^toggles toggle
/// configurations multiply every state count).
std::vector<widening_case> widening_cases(int toggles = 8)
{
    constexpr std::int64_t two32 = std::int64_t{1} << 32;
    std::vector<widening_case> cases;
    // Counts cross 255 near BFS depth 37 (cap 300): 1 -> 2 bytes.
    cases.push_back({"cross_255", counter_net("cross_255", 0, 7, toggles), 300, 2, 1});
    // Counts pass 1,000 (1 -> 2 bytes) and then 66,000 (2 -> 4 bytes).
    cases.push_back(
        {"cross_65535", counter_net("cross_65535", 0, 1000, toggles), 70000, 4, 2});
    // One arc weight leaps from 0 past 2^32 at depth 25: 1 -> 8 bytes.
    cases.push_back({"jump_past_2_32",
                     counter_net("jump_past_2_32", 0, 0, toggles, 24, 0, two32 + 5),
                     3 * two32, 8, 1});
    // Walks pass 255 at depth 13 (1 -> 2 bytes), the leap comes at depth 31
    // (2 -> 8 bytes).
    cases.push_back({"steps_then_jump",
                     counter_net("steps_then_jump", 0, 0, toggles, 30, 20, two32 + 9),
                     3 * two32, 8, 2});
    // The root already needs 8 bytes: the store starts there, never widens.
    cases.push_back({"root_above_2_32",
                     counter_net("root_above_2_32", 5 * two32, 1, toggles),
                     5 * two32 + 40, 8, 0});
    return cases;
}

constexpr std::size_t all_states = 200000; ///< above every case's state count

/// Bit-identical comparison of two compact spaces: same ids, decoded
/// tokens, CSR rows and truncation verdict.
void expect_identical_spaces(const state_space& expected, const state_space& actual,
                             const std::string& where)
{
    ASSERT_EQ(expected.state_count(), actual.state_count()) << where;
    ASSERT_EQ(expected.edge_count(), actual.edge_count()) << where;
    EXPECT_EQ(expected.truncated(), actual.truncated()) << where;
    std::vector<std::int64_t> want(expected.store().width());
    std::vector<std::int64_t> got(actual.store().width());
    for (state_id s = 0; s < static_cast<state_id>(expected.state_count()); ++s) {
        expected.load(s, want.data());
        actual.load(s, got.data());
        ASSERT_EQ(want, got) << where << ", state " << s;
        const auto expected_edges = expected.successors(s);
        const auto actual_edges = actual.successors(s);
        ASSERT_TRUE(std::equal(expected_edges.begin(), expected_edges.end(),
                               actual_edges.begin(), actual_edges.end()))
            << where << ", state " << s;
    }
}

/// Explores with obs on and returns (space, pn.store.widenings,
/// pn.store.chunks, gauge).
struct observed_run {
    state_space space;
    std::uint64_t widenings = 0;
    std::uint64_t chunks = 0;
    double count_bytes = 0;
};

template <typename Explore>
observed_run observe(Explore&& explore)
{
    obs::reset();
    obs::set_stats_enabled(true);
    observed_run run{explore()};
    obs::set_stats_enabled(false);
    run.widenings = obs::get_counter("pn.store.widenings").value();
    run.chunks = obs::get_counter("pn.store.chunks").value();
    run.count_bytes = obs::get_gauge("pn.store.count_bytes", "bytes").value();
    return run;
}

constexpr std::size_t thread_counts[] = {1, 2, 4, 8};

TEST(compact_engines, widening_runs_match_the_reference_and_the_sequential_engine)
{
    for (const widening_case& c : widening_cases()) {
        const reachability_graph reference = explore_reference(
            c.net, {.max_markings = all_states, .max_tokens_per_place = c.cap});
        const observed_run seq =
            observe([&] { return explore_state_space(c.net, c.seq(all_states)); });
        EXPECT_EQ(testutil::difference_from_reference(seq.space, reference), "")
            << c.name;
        EXPECT_EQ(seq.space.store().count_bytes(), c.final_bytes) << c.name;
        EXPECT_EQ(seq.widenings, c.seq_widenings) << c.name;
        EXPECT_EQ(seq.count_bytes, c.final_bytes) << c.name;
        ASSERT_GT(seq.space.state_count(), 5000u) << c.name;

        for (const std::size_t threads : thread_counts) {
            const observed_run par = observe(
                [&] { return explore_parallel(c.net, c.par(threads, all_states)); });
            const std::string where = c.name + (" par" + std::to_string(threads));
            expect_identical_spaces(seq.space, par.space, where);
            EXPECT_EQ(par.space.store().count_bytes(), c.final_bytes) << where;
            EXPECT_EQ(par.count_bytes, c.final_bytes) << where;
            // Shards hold no rows, so only the result store widens: at each
            // of the sequential engine's steps, and no more when the state
            // budget does not bind.  It is also the only store with arena
            // chunks, as many as the sequential engine's.
            EXPECT_EQ(par.widenings, c.seq_widenings) << where;
            EXPECT_EQ(par.chunks, seq.chunks) << where;
        }
    }
}

TEST(compact_engines, widening_is_bit_identical_under_a_spilling_budget)
{
    for (const widening_case& c : widening_cases()) {
        const state_space unlimited = explore_state_space(c.net, c.seq(all_states));
        const std::size_t budget =
            std::max<std::size_t>(unlimited.store().arena_bytes() / 8, 4096);
        const state_space seq = explore_state_space(c.net, c.seq(all_states, budget));
        expect_identical_spaces(unlimited, seq, c.name + std::string(" seq spill"));
        ASSERT_NE(seq.store().pager(), nullptr);
        EXPECT_GT(seq.store().pager()->stats().evictions, 0u) << c.name;
        for (const std::size_t threads : thread_counts) {
            const state_space par =
                explore_parallel(c.net, c.par(threads, all_states, budget));
            const std::string where =
                c.name + (" par" + std::to_string(threads) + " spill");
            expect_identical_spaces(unlimited, par, where);
            EXPECT_GT(par.store().pager()->stats().evictions, 0u) << where;
        }
    }
}

TEST(compact_engines, budget_binding_at_the_widening_level_keeps_the_prefix)
{
    // State budgets that bind around the first state whose counts do not
    // fit a byte: the parallel engine may widen for a marking the budget
    // then rejects, but the kept prefix must not change.
    for (const widening_case& c : widening_cases()) {
        const state_space full = explore_state_space(c.net, c.seq(all_states));
        std::size_t first_wide = 0;
        std::vector<std::int64_t> tokens(full.store().width());
        for (; first_wide < full.state_count(); ++first_wide) {
            full.load(static_cast<state_id>(first_wide), tokens.data());
            if (row_count_bytes(tokens.data(), tokens.size()) > 1) {
                break;
            }
        }
        for (const std::size_t max_states :
             {std::max<std::size_t>(first_wide, 1), first_wide + 1, first_wide + 300}) {
            const reachability_graph reference = explore_reference(
                c.net, {.max_markings = max_states, .max_tokens_per_place = c.cap});
            const state_space seq = explore_state_space(c.net, c.seq(max_states));
            const std::string where = c.name + (" max " + std::to_string(max_states));
            EXPECT_EQ(testutil::difference_from_reference(seq, reference), "") << where;
            for (const std::size_t threads : thread_counts) {
                expect_identical_spaces(
                    seq, explore_parallel(c.net, c.par(threads, max_states)),
                    where + " par" + std::to_string(threads));
            }
        }
    }
}

TEST(compact_engines, widening_under_stubborn_reduction_matches_the_sequential_engine)
{
    // Five toggles under the deadlock reduction.  The reduced graphs of
    // cross_255 and cross_65535 still climb their counters, so both engines
    // widen inside the reduced run, once (to 2 bytes) and twice (to 4
    // bytes); the jump nets' reduced graphs stop before any leap, at 1 byte,
    // and root_above_2_32 starts at 8.
    const auto reduced_bytes = [](const std::string& name) -> unsigned {
        if (name == "cross_255") {
            return 2;
        }
        if (name == "cross_65535") {
            return 4;
        }
        return name == "root_above_2_32" ? 8 : 1;
    };
    for (const widening_case& c : widening_cases(5)) {
        const std::string where = c.name + std::string(" deadlock");
        reachability_options seq_options = c.seq(all_states);
        seq_options.reduction = reduction_kind::deadlock;
        const state_space seq = explore_state_space(c.net, seq_options);
        EXPECT_EQ(seq.store().count_bytes(), reduced_bytes(c.name)) << where;
        for (const std::size_t budget : {std::size_t{0}, std::size_t{4096}}) {
            for (const std::size_t threads : thread_counts) {
                reachability_options options = c.par(threads, all_states, budget);
                options.reduction = reduction_kind::deadlock;
                const state_space par = explore_parallel(c.net, options);
                const std::string run = where + " par" + std::to_string(threads) +
                                        " budget " + std::to_string(budget);
                expect_identical_spaces(seq, par, run);
                EXPECT_EQ(par.store().count_bytes(), reduced_bytes(c.name)) << run;
            }
        }
    }
}

} // namespace
} // namespace fcqss::pn
