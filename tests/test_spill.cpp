// External-memory differential net: exploration under a --max-bytes budget
// must publish a state space bit-identical to the all-in-RAM run — same ids,
// decoded tokens, CSR rows and truncation verdict — across generator families,
// thread counts and spill ratios (budgets derived from the unlimited run's
// own arena size).  Also pins the operational surface: evictions really
// happen under a tight budget on both engines, a budget adds no bytes to
// the store (probes read evicted rows through the mapping, nothing is kept
// beside the arena), and a truncated spill file surfaces as fcqss::io_error
// at the store layer, not UB.  The ASan CI job runs this file, covering the
// whole mmap/madvise/refault path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/error.hpp"
#include "exec/chunk_pager.hpp"
#include "pipeline/net_generator.hpp"
#include "pn/marking_store.hpp"
#include "pn/reachability.hpp"
#include "pn/state_space.hpp"

namespace fcqss::pn {
namespace {

/// Bit-identical comparison, same contract as test_parallel_explore.cpp.
void expect_identical_spaces(const state_space& expected, const state_space& actual)
{
    ASSERT_EQ(expected.state_count(), actual.state_count());
    ASSERT_EQ(expected.edge_count(), actual.edge_count());
    EXPECT_EQ(expected.truncated(), actual.truncated());
    for (state_id s = 0; s < static_cast<state_id>(expected.state_count()); ++s) {
        const auto expected_tokens = expected.tokens(s);
        const auto actual_tokens = actual.tokens(s);
        ASSERT_TRUE(std::equal(expected_tokens.begin(), expected_tokens.end(),
                               actual_tokens.begin(), actual_tokens.end()))
            << "state " << s;
        const auto expected_edges = expected.successors(s);
        const auto actual_edges = actual.successors(s);
        ASSERT_TRUE(std::equal(expected_edges.begin(), expected_edges.end(),
                               actual_edges.begin(), actual_edges.end()))
            << "state " << s;
    }
}

petri_net family_net(pipeline::net_family family, std::uint64_t seed)
{
    pipeline::generator_options options;
    options.family = family;
    options.sources = 2;
    options.depth = 4;
    options.token_load = 2;
    // Credit-bounded sources keep the spaces finite.
    options.source_credit = 4;
    return pipeline::net_generator(seed, options).next();
}

TEST(Spill, BitIdenticalAcrossFamiliesThreadsAndRatios)
{
    const pipeline::net_family families[] = {
        pipeline::net_family::free_choice,
        pipeline::net_family::client_server,
        pipeline::net_family::layered_pipeline,
    };
    std::uint64_t seed = 40;
    for (const pipeline::net_family family : families) {
        const petri_net net = family_net(family, ++seed);
        reachability_options base;
        base.max_markings = 8000;
        base.max_tokens_per_place = 64;
        const state_space baseline = explore_space(net, base);
        ASSERT_GT(baseline.state_count(), 0u);

        // Budgets as fractions of the unlimited run's own arena: ~0.5 and
        // ~0.9 spill ratios (the latter keeps almost nothing resident).
        const std::size_t arena = baseline.store().arena_bytes();
        const std::size_t budgets[] = {std::max<std::size_t>(arena / 2, 4096),
                                       std::max<std::size_t>(arena / 10, 4096)};
        for (const std::size_t budget : budgets) {
            for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
                reachability_options opts = base;
                opts.max_bytes = budget;
                opts.threads = threads;
                const state_space spilled = explore_space(net, opts);
                expect_identical_spaces(baseline, spilled);
            }
        }
    }
}

TEST(Spill, TightBudgetEvictsAndAddsNoStoreBytes)
{
    // client_server without source credit is unbounded: truncation at
    // max_markings guarantees a large arena, so a budget ~32x smaller than
    // the unlimited run's arena forces most chunks out and intern probes
    // onto evicted rows.  With 1-byte rows the 7-place net needs 300k
    // states to span several 256 KiB chunks (30k fit in one, and the bump
    // chunk being filled is never evicted).
    pipeline::generator_options gen;
    gen.family = pipeline::net_family::client_server;
    const petri_net net = pipeline::net_generator(7, gen).next();

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(threads);
        reachability_options unlimited;
        unlimited.max_markings = 300000;
        unlimited.threads = threads;
        const state_space baseline = explore_space(net, unlimited);
        ASSERT_TRUE(baseline.truncated());
        ASSERT_GT(baseline.store().chunk_count(), 4u);

        reachability_options spilled = unlimited;
        spilled.max_bytes = baseline.store().arena_bytes() / 32;
        const state_space space = explore_space(net, spilled);
        expect_identical_spaces(baseline, space);
        EXPECT_EQ(space.store().memory_bytes(), baseline.store().memory_bytes());

        ASSERT_NE(space.store().pager(), nullptr);
        const exec::chunk_pager_stats pager_stats = space.store().pager()->stats();
        EXPECT_GT(pager_stats.chunks, 1u);
        EXPECT_GT(pager_stats.evictions, 0u);
        EXPECT_GT(pager_stats.spill_file_bytes, 0u);
    }
}

TEST(Spill, TruncatedSpillFileSurfacesAsIoErrorNotUB)
{
    // A store draws chunks from its pager; truncating the spill file behind
    // its back must surface as a typed io_error at the next validation
    // point (every chunk allocation validates, and callers can validate
    // explicitly before a read sweep) instead of a SIGBUS deep in a token
    // read.  The intern itself is not run past the truncation: rows already
    // handed out live in the truncated region, and writing them is exactly
    // the UB window the allocate-time validation exists to close early.
    const auto pager = std::make_shared<exec::chunk_pager>(64 * 1024);
    marking_store store(8, pager);
    std::vector<std::int64_t> tokens(8, 0);
    tokens[0] = 1;
    ASSERT_TRUE(store.intern(tokens.data(),
                             marking_store::hash_tokens(tokens.data(), 8))
                    .second);
    ASSERT_EQ(store.chunk_count(), 1u);
    EXPECT_NO_THROW(store.pager()->validate_backing());

    ASSERT_EQ(::truncate(store.pager()->spill_path().c_str(), 0), 0);
    EXPECT_THROW(store.pager()->validate_backing(), fcqss::io_error);
    EXPECT_THROW(static_cast<void>(store.pager()->allocate(4096)),
                 fcqss::io_error);
}

} // namespace
} // namespace fcqss::pn
