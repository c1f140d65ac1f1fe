// The test net that locks the sharded parallel engine down: randomized
// differential sweeps asserting that explore_parallel() at 1/2/4/8 threads
// returns the bit-identical compact state space as explore_state_space()
// (and the same graph as the naive explore_reference()) on all three
// generator families with defects and token load — including under tight
// state and token budgets, where truncation behaviour must also agree —
// plus equivalence tests pinning the compact-form find_deadlock /
// shortest_path_to / is_reachable / place_bounds against their
// reachability_graph versions on explore_reference()'s graph.  The whole
// file runs under the ThreadSanitizer CI job, so the differential sweeps
// double as a data-race net.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "nets/paper_nets.hpp"
#include "obs/obs.hpp"
#include "pipeline/net_generator.hpp"
#include "pn/builder.hpp"
#include "pn/marking.hpp"
#include "pn/parallel_explore.hpp"
#include "pn/reachability.hpp"
#include "pn/state_space.hpp"
#include "test_util.hpp"

namespace fcqss::pn {
namespace {

/// Bit-identical comparison: same ids, same decoded tokens, same CSR rows,
/// same truncation verdict.
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

/// The weaker, id-free guarantee stated in the issue: identical marking
/// *set* and edge *multiset*.  Ids already match bit-for-bit above; this
/// pins the set-level agreement independently of any numbering convention.
void expect_same_sets(const state_space& a, const state_space& b)
{
    using tokens_vec = std::vector<std::int64_t>;
    const auto marking_set = [](const state_space& space) {
        std::set<tokens_vec> out;
        for (state_id s = 0; s < static_cast<state_id>(space.state_count()); ++s) {
            const auto span = space.tokens(s);
            out.insert(tokens_vec(span.begin(), span.end()));
        }
        return out;
    };
    const auto edge_multiset = [](const state_space& space) {
        std::multiset<std::tuple<tokens_vec, std::int32_t, tokens_vec>> out;
        for (state_id s = 0; s < static_cast<state_id>(space.state_count()); ++s) {
            const auto from = space.tokens(s);
            for (const state_space_edge& edge : space.successors(s)) {
                const auto to = space.tokens(edge.to);
                out.insert({tokens_vec(from.begin(), from.end()), edge.via.value(),
                            tokens_vec(to.begin(), to.end())});
            }
        }
        return out;
    };
    EXPECT_EQ(marking_set(a), marking_set(b));
    EXPECT_EQ(edge_multiset(a), edge_multiset(b));
}

constexpr std::size_t thread_counts[] = {1, 2, 4, 8};

TEST(parallel_explore, differential_on_generated_nets_all_families)
{
    for (const pipeline::net_family family :
         {pipeline::net_family::marked_graph, pipeline::net_family::free_choice,
          pipeline::net_family::choice_heavy}) {
        pipeline::generator_options options;
        options.family = family;
        options.sources = 3;
        options.depth = 5;
        options.token_load = 2;
        options.defect_percent = 50;
        pipeline::net_generator generator(17, options);
        for (int i = 0; i < 4; ++i) {
            const petri_net net = generator.next();
            SCOPED_TRACE(std::string("family ") + pipeline::to_string(family) +
                         " net " + std::to_string(i));
            reachability_options budget{.max_markings = 1500,
                                        .max_tokens_per_place = 64};
            const state_space sequential = explore_state_space(net, budget);
            for (const std::size_t threads : thread_counts) {
                SCOPED_TRACE("threads " + std::to_string(threads));
                budget.threads = threads;
                expect_identical_spaces(sequential, explore_parallel(net, budget));
            }
            // Anchor the chain all the way down to the naive reference BFS.
            EXPECT_EQ(testutil::difference_from_reference(
                          sequential, explore_reference(net, budget)),
                      "");
        }
    }
}

TEST(parallel_explore, differential_under_tight_state_budget)
{
    pipeline::generator_options options;
    options.family = pipeline::net_family::free_choice;
    options.sources = 3;
    options.depth = 5;
    options.token_load = 2;
    pipeline::net_generator generator(23, options);
    const petri_net net = generator.next();

    // Budgets that truncate mid-level are the hard case: the parallel
    // renumbering must keep exactly the states the sequential engine keeps.
    for (const std::size_t max_states : {std::size_t{1}, std::size_t{7},
                                         std::size_t{25}, std::size_t{200}}) {
        SCOPED_TRACE("max_states " + std::to_string(max_states));
        const state_space sequential = explore_state_space(
            net, {.max_markings = max_states, .max_tokens_per_place = 64});
        for (const std::size_t threads : thread_counts) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            const state_space parallel =
                explore_parallel(net, {.max_markings = max_states,
                                       .max_tokens_per_place = 64,
                                       .threads = threads});
            expect_identical_spaces(sequential, parallel);
        }
    }
}

TEST(parallel_explore, differential_under_tight_token_cap)
{
    pipeline::generator_options options;
    options.family = pipeline::net_family::choice_heavy;
    options.sources = 2;
    options.depth = 4;
    options.token_load = 1;
    pipeline::net_generator generator(29, options);
    const petri_net net = generator.next();

    const state_space sequential =
        explore_state_space(net, {.max_markings = 5000, .max_tokens_per_place = 2});
    EXPECT_TRUE(sequential.truncated()); // sources pump past any cap
    for (const std::size_t threads : thread_counts) {
        const state_space parallel = explore_parallel(
            net, {.max_markings = 5000, .max_tokens_per_place = 2, .threads = threads});
        expect_identical_spaces(sequential, parallel);
    }
}

TEST(parallel_explore, thread_count_does_not_change_the_result)
{
    // The engine runs 2 x threads shards rounded up to a power of two, so
    // odd thread counts exercise the rounding (3 threads: 6 -> 8 shards,
    // 5: 10 -> 16) and 32 threads a 64-way split of a small space.
    pipeline::generator_options options;
    options.family = pipeline::net_family::free_choice;
    options.token_load = 2;
    pipeline::net_generator generator(31, options);
    const petri_net net = generator.next();

    const state_space sequential = explore_state_space(net, {.max_markings = 2000});
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{3}, std::size_t{5}, std::size_t{32}}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const state_space parallel =
            explore_parallel(net, {.max_markings = 2000, .threads = threads});
        expect_identical_spaces(sequential, parallel);
        expect_same_sets(sequential, parallel);
    }
}

TEST(parallel_explore, differential_on_paper_nets)
{
    for (const auto& build : {nets::figure_1a, nets::figure_2, nets::figure_4}) {
        const petri_net net = build();
        const state_space sequential =
            explore_state_space(net, {.max_markings = 5000,
                                      .max_tokens_per_place = 1 << 10});
        for (const std::size_t threads : thread_counts) {
            const state_space parallel = explore_parallel(
                net, {.max_markings = 5000,
                      .max_tokens_per_place = 1 << 10,
                      .threads = threads});
            expect_identical_spaces(sequential, parallel);
        }
    }
}

TEST(parallel_explore, budget_sweep_keeps_the_sequential_prefix)
{
    // The budget-crossing regression pin: sweep the state budget through
    // every value up to past the full reachable size, so many sweeps land
    // mid-level — where the kept set must still be exactly the sequential
    // prefix whatever the thread (and so shard) count.
    pipeline::generator_options options;
    options.family = pipeline::net_family::choice_heavy;
    options.sources = 2;
    options.depth = 3;
    options.token_load = 2;
    options.source_credit = 2; // finite state space: the sweep covers it all
    pipeline::net_generator generator(47, options);
    const petri_net net = generator.next();

    const state_space full =
        explore_state_space(net, {.max_markings = 4000, .max_tokens_per_place = 4});
    const std::size_t reachable = full.state_count();
    ASSERT_LT(reachable, std::size_t{4000});
    ASSERT_GT(reachable, std::size_t{20});

    for (std::size_t max_states = 1; max_states <= reachable + 2; ++max_states) {
        SCOPED_TRACE("max_states " + std::to_string(max_states));
        const state_space sequential = explore_state_space(
            net, {.max_markings = max_states, .max_tokens_per_place = 4});
        // Kept set == sequential prefix of the full run, by construction of
        // the sequential engine; pin it explicitly so the differential
        // checks below inherit the meaning.
        ASSERT_EQ(sequential.state_count(), std::min(max_states, reachable));
        for (const std::size_t threads :
             {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            const state_space parallel =
                explore_parallel(net, {.max_markings = max_states,
                                       .max_tokens_per_place = 4,
                                       .threads = threads});
            expect_identical_spaces(sequential, parallel);
        }
    }
}

TEST(parallel_explore, budget_cut_inside_a_pooled_level)
{
    // The sweep above stays on small frontiers, which run inline.  Here the
    // BFS levels hold hundreds of states, so they run on the pool, and the
    // state budget is cut inside the fresh markings of the first, a middle
    // and the last expansion chunk of such a level: chunks before the cut
    // keep every fresh marking, the cut chunk keeps a prefix, and chunks
    // after it keep none.
    pipeline::generator_options options;
    options.family = pipeline::net_family::choice_heavy;
    options.sources = 3;
    options.depth = 3;
    options.source_credit = 1; // finite state space
    const petri_net net = pipeline::net_generator(11, options).next();

    const state_space full = explore_state_space(net, {.max_markings = 100000});
    ASSERT_FALSE(full.truncated());
    const std::size_t states = full.state_count();

    // Ids are handed out in discovery order, so the fresh successors of
    // parent p are the ids [first_fresh[p], first_fresh[p + 1]).
    std::vector<std::size_t> first_fresh(states + 1);
    std::size_t next_id = 1;
    for (state_id p = 0; p < static_cast<state_id>(states); ++p) {
        first_fresh[p] = next_id;
        for (const state_space_edge& edge : full.successors(p)) {
            next_id += edge.to == next_id ? 1 : 0;
        }
    }
    first_fresh[states] = states;
    ASSERT_EQ(next_id, states);

    // The level whose expansion discovers the most fresh markings.
    std::size_t cut_begin = 0;
    std::size_t cut_end = 1;
    for (std::size_t begin = 0, end = 1; begin < end;
         begin = end, end = first_fresh[end]) {
        if (first_fresh[end] - end > first_fresh[cut_end] - cut_end) {
            cut_begin = begin;
            cut_end = end;
        }
    }
    const std::size_t frontier = cut_end - cut_begin;
    ASSERT_GE(frontier, std::size_t{64}); // pooled at every thread count below

    for (const std::size_t threads :
         {std::size_t{2}, std::size_t{3}, std::size_t{4}, std::size_t{8}}) {
        // The engine's expansion chunks: 4 x threads contiguous parent
        // ranges of the frontier.
        const std::size_t chunk_count = std::min(frontier, 4 * threads);
        for (const std::size_t chunk :
             {std::size_t{0}, chunk_count / 2, chunk_count - 1}) {
            const std::size_t lo =
                first_fresh[cut_begin + frontier * chunk / chunk_count];
            const std::size_t hi =
                first_fresh[cut_begin + frontier * (chunk + 1) / chunk_count];
            ASSERT_GE(hi - lo, std::size_t{2}) << "chunk " << chunk;
            const std::size_t max_states = lo + (hi - lo) / 2;
            const state_space sequential =
                explore_state_space(net, {.max_markings = max_states});
            ASSERT_EQ(sequential.state_count(), max_states);
            ASSERT_TRUE(sequential.truncated());
            // 4096 routes every store through the spill pager (too few
            // rows to evict here; test_spill covers eviction).
            for (const std::size_t max_bytes : {std::size_t{0}, std::size_t{4096}}) {
                SCOPED_TRACE("threads " + std::to_string(threads) + " chunk " +
                             std::to_string(chunk) + " max_states " +
                             std::to_string(max_states) + " max_bytes " +
                             std::to_string(max_bytes));
                obs::reset();
                obs::set_stats_enabled(true);
                const state_space parallel =
                    explore_parallel(net, {.max_markings = max_states,
                                           .max_bytes = max_bytes,
                                           .threads = threads});
                obs::set_stats_enabled(false);
                EXPECT_GT(obs::get_counter("pn.explore.levels").value(),
                          obs::get_counter("pn.explore.inline_levels").value());
                expect_identical_spaces(sequential, parallel);
            }
        }
    }
}

TEST(parallel_explore, explore_dispatches_on_thread_count)
{
    pipeline::generator_options options;
    options.family = pipeline::net_family::free_choice;
    options.token_load = 1;
    pipeline::net_generator generator(37, options);
    const petri_net net = generator.next();

    reachability_options sequential{.max_markings = 1000, .max_tokens_per_place = 64};
    reachability_options parallel = sequential;
    parallel.threads = 4;
    expect_identical_spaces(explore_space(net, sequential), explore_space(net, parallel));
}

// -- Span-served queries vs the reachability_graph versions -----------------
//
// The graph versions run on explore_reference()'s graph, whose node ids are
// the engine's state ids (the differentials above pin that).

/// A linear chain that genuinely deadlocks: p0 -> t0 -> p1 -> t1 -> p2 with
/// no consumer of p2 (and no source transitions).
petri_net dead_end_chain()
{
    net_builder b("dead_end");
    const auto p0 = b.add_place("p0", 1);
    const auto p1 = b.add_place("p1");
    const auto p2 = b.add_place("p2");
    const auto t0 = b.add_transition("t0");
    const auto t1 = b.add_transition("t1");
    b.add_arc(p0, t0);
    b.add_arc(t0, p1);
    b.add_arc(p1, t1);
    b.add_arc(t1, p2);
    return std::move(b).build();
}

TEST(span_queries, find_deadlock_matches_materializing_version)
{
    // One deadlocking net, one live net, and generated nets with sources
    // (never dead) — verdicts must match the graph version on all of them.
    std::vector<petri_net> nets;
    nets.push_back(dead_end_chain());
    nets.push_back(nets::figure_2());
    pipeline::net_generator generator(41);
    nets.push_back(generator.next());

    for (const petri_net& net : nets) {
        SCOPED_TRACE(net.name());
        const reachability_options budget{.max_markings = 2000,
                                          .max_tokens_per_place = 64};
        const reachability_graph graph = explore_reference(net, budget);
        const state_space space = explore_space(net, budget);

        const std::optional<marking> old_verdict = find_deadlock(net, graph);
        const std::optional<state_id> span_verdict = find_deadlock(net, space);
        ASSERT_EQ(old_verdict.has_value(), span_verdict.has_value());
        if (old_verdict) {
            EXPECT_EQ(*old_verdict, space.marking_of(*span_verdict));
        }
    }
}

TEST(span_queries, truncation_does_not_fake_deadlocks)
{
    // Under a tiny state budget the frontier states have zero recorded
    // edges; the span-served check must still see their enabled transitions
    // and not report them dead.
    pipeline::net_generator generator(43);
    const petri_net net = generator.next(); // has source transitions: live
    const reachability_options budget{.max_markings = 3, .max_tokens_per_place = 64};
    const state_space space = explore_space(net, budget);
    EXPECT_TRUE(space.truncated());
    EXPECT_EQ(find_deadlock(net, space), std::nullopt);
    EXPECT_EQ(find_deadlock(net, explore_reference(net, budget)), std::nullopt);
}

TEST(span_queries, shortest_path_and_reachability_match)
{
    const petri_net net = dead_end_chain();
    const reachability_options budget{.max_markings = 100};
    const reachability_graph graph = explore_reference(net, budget);
    const state_space space = explore_space(net, budget);
    ASSERT_EQ(graph.size(), space.state_count());

    for (std::size_t s = 0; s < graph.size(); ++s) {
        const marking& target = graph.nodes[s].state;
        EXPECT_TRUE(is_reachable(space, target));
        EXPECT_EQ(shortest_path_to(space, target),
                  shortest_path_to(graph, target));
    }

    // Absent targets: right width but unreachable, and wrong width.
    marking absent(std::vector<std::int64_t>{9, 9, 9});
    EXPECT_FALSE(is_reachable(space, absent));
    EXPECT_EQ(shortest_path_to(space, absent), std::nullopt);
    EXPECT_EQ(shortest_path_to(graph, absent), std::nullopt);
    marking wrong_width(std::vector<std::int64_t>{1});
    EXPECT_FALSE(is_reachable(space, wrong_width));
    EXPECT_EQ(shortest_path_to(space, wrong_width), std::nullopt);
}

TEST(span_queries, shortest_path_matches_on_generated_nets)
{
    pipeline::generator_options options;
    options.family = pipeline::net_family::free_choice;
    options.token_load = 2;
    pipeline::net_generator generator(47, options);
    const petri_net net = generator.next();
    const reachability_options budget{.max_markings = 800,
                                      .max_tokens_per_place = 64};
    const reachability_graph graph = explore_reference(net, budget);
    const state_space space = explore_space(net, budget);
    ASSERT_EQ(graph.size(), space.state_count());

    // Every 37th explored marking, plus the deepest one.
    for (std::size_t s = 0; s < graph.size(); s += 37) {
        const marking& target = graph.nodes[s].state;
        EXPECT_EQ(shortest_path_to(space, target),
                  shortest_path_to(graph, target))
            << "state " << s;
    }
    const marking& deepest = graph.nodes.back().state;
    EXPECT_EQ(shortest_path_to(space, deepest),
              shortest_path_to(graph, deepest));
}

TEST(span_queries, place_bounds_match)
{
    pipeline::net_generator generator(53);
    for (int i = 0; i < 3; ++i) {
        const petri_net net = generator.next();
        const reachability_options budget{.max_markings = 500,
                                          .max_tokens_per_place = 32};
        EXPECT_EQ(place_bounds(explore_space(net, budget)),
                  place_bounds(explore_reference(net, budget)));
    }
}

} // namespace
} // namespace fcqss::pn
