// The deadlock-preservation test net for the stubborn-set reduction
// (pn/stubborn.hpp): randomized differential sweeps over every generator
// family x defect x token load x source credit assert that reduced
// exploration agrees with full exploration on *has-deadlock* and on the set
// of reachable deadlock markings, visits no more states than the full
// graph (strictly fewer on the choice-heavy family), and is bit-identical
// across threads 1/2/4 — including under tight truncating budgets, where
// the per-state-local reduction must keep the parallel engine's
// determinism guarantee intact.  It pins what the reduction does NOT
// preserve — on a cycle of choices it ignores enabled transitions forever,
// so liveness cannot be read off a reduced graph.  The file also carries
// the property test for the incremental enabled-set machinery the
// reduction is built on: after any random firing sequence,
// detail::merge_enabled over affected[t] equals a from-scratch
// recomputation.  Runs under the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "base/prng.hpp"
#include "pipeline/net_generator.hpp"
#include "pn/builder.hpp"
#include "pn/marking.hpp"
#include "pn/parallel_explore.hpp"
#include "pn/reachability.hpp"
#include "pn/state_space.hpp"
#include "pn/stubborn.hpp"

namespace fcqss::pn {
namespace {

using tokens_vec = std::vector<std::int64_t>;

/// The set of dead markings in the explored region, as raw token vectors.
std::set<tokens_vec> deadlock_markings(const petri_net& net, const state_space& space)
{
    std::set<tokens_vec> dead;
    for (const state_id s : deadlock_states(net, space)) {
        const auto span = space.tokens(s);
        dead.insert(tokens_vec(span.begin(), span.end()));
    }
    return dead;
}

/// Bit-identical comparison: same ids, same decoded tokens, same CSR rows,
/// same truncation verdict (as in test_parallel_explore.cpp).
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

constexpr std::size_t thread_counts[] = {1, 2, 4};

// -- Hand-built sanity nets -------------------------------------------------

/// Two independent one-shot chains: p0 -> t0 -> p1 and q0 -> u0 -> q1.  The
/// full graph interleaves them (4 states); a stubborn reduction serializes
/// them (3 states) while the unique dead marking stays reachable.
petri_net independent_chains()
{
    net_builder b("independent_chains");
    const auto p0 = b.add_place("p0", 1);
    const auto p1 = b.add_place("p1");
    const auto q0 = b.add_place("q0", 1);
    const auto q1 = b.add_place("q1");
    const auto t0 = b.add_transition("t0");
    const auto u0 = b.add_transition("u0");
    b.add_arc(p0, t0);
    b.add_arc(t0, p1);
    b.add_arc(q0, u0);
    b.add_arc(u0, q1);
    return std::move(b).build();
}

/// One choice place with two alternatives draining to distinct sinks: both
/// branches are in conflict, so no reduction may drop either dead marking.
petri_net two_way_choice()
{
    net_builder b("two_way_choice");
    const auto c = b.add_place("c", 1);
    const auto pa = b.add_place("pa");
    const auto pb = b.add_place("pb");
    const auto a = b.add_transition("a");
    const auto bt = b.add_transition("b");
    b.add_arc(c, a);
    b.add_arc(a, pa);
    b.add_arc(c, bt);
    b.add_arc(bt, pb);
    return std::move(b).build();
}

TEST(stubborn, serializes_independent_chains)
{
    const petri_net net = independent_chains();
    const state_space full = explore_state_space(net, {});
    const state_space reduced =
        explore_state_space(net, {.reduction = reduction_kind::deadlock});

    EXPECT_EQ(full.state_count(), 4u);
    EXPECT_EQ(reduced.state_count(), 3u);
    EXPECT_FALSE(reduced.truncated());
    EXPECT_EQ(deadlock_markings(net, reduced), deadlock_markings(net, full));
    EXPECT_EQ(deadlock_markings(net, reduced).size(), 1u);
}

TEST(stubborn, keeps_conflicting_alternatives_together)
{
    const petri_net net = two_way_choice();
    const state_space full = explore_state_space(net, {});
    const state_space reduced =
        explore_state_space(net, {.reduction = reduction_kind::deadlock});

    // Both alternatives share the choice place, so the stubborn set at the
    // root is the whole enabled set: no state may be dropped here.
    expect_identical_spaces(full, reduced);
    EXPECT_EQ(deadlock_markings(net, reduced).size(), 2u);
}

TEST(stubborn, reduce_is_a_subset_with_at_least_one_member)
{
    const petri_net net = independent_chains();
    const stubborn_reduction reduction(net);
    stubborn_workspace ws;

    const tokens_vec m0 = net.initial_marking_vector();
    std::vector<transition_id> enabled;
    for (transition_id t : net.transitions()) {
        if (detail::enabled_in(net, m0.data(), t)) {
            enabled.push_back(t);
        }
    }
    ASSERT_EQ(enabled.size(), 2u);

    std::vector<transition_id> out;
    reduction.reduce(m0.data(), enabled, ws, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(std::includes(enabled.begin(), enabled.end(), out.begin(), out.end()));

    // Empty and singleton enabled sets pass through untouched.
    reduction.reduce(m0.data(), {}, ws, out);
    EXPECT_TRUE(out.empty());
    const std::vector<transition_id> one{enabled.front()};
    reduction.reduce(m0.data(), one, ws, out);
    EXPECT_EQ(out, one);
}

// -- Randomized differential sweeps ----------------------------------------

/// One full-vs-reduced differential on `net`: the full graph must fit the
/// budget (callers size the generators so it does), and then the reduced
/// exploration — sequential and parallel at every thread count — must
/// agree on has-deadlock and on the exact set of dead markings, without
/// visiting more states.
void expect_deadlocks_preserved(const petri_net& net, bool expect_strictly_fewer)
{
    const reachability_options full_budget{.max_markings = 300000,
                                           .max_tokens_per_place = 1 << 20};
    const state_space full = explore_state_space(net, full_budget);
    ASSERT_FALSE(full.truncated()) << "test net too large: grow the budget";

    reachability_options reduced_budget = full_budget;
    reduced_budget.reduction = reduction_kind::deadlock;
    const state_space reduced = explore_state_space(net, reduced_budget);
    ASSERT_FALSE(reduced.truncated());

    EXPECT_LE(reduced.state_count(), full.state_count());
    if (expect_strictly_fewer) {
        EXPECT_LT(reduced.state_count(), full.state_count());
    }
    EXPECT_EQ(find_deadlock(net, reduced).has_value(),
              find_deadlock(net, full).has_value());
    EXPECT_EQ(deadlock_markings(net, reduced), deadlock_markings(net, full));

    for (const std::size_t threads : thread_counts) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        reduced_budget.threads = threads;
        expect_identical_spaces(reduced, explore_parallel(net, reduced_budget));
    }
}

TEST(stubborn, deadlock_preservation_differential_all_families)
{
    for (const pipeline::net_family family :
         {pipeline::net_family::marked_graph, pipeline::net_family::free_choice,
          pipeline::net_family::choice_heavy}) {
        for (const int token_load : {0, 2}) {
            pipeline::generator_options options;
            options.family = family;
            options.sources = 2;
            options.depth = 3;
            options.token_load = token_load;
            options.defect_percent = 50;
            // Credit-bounded sources: the full graph is finite and genuinely
            // deadlocks once the credit drains, so the dead-marking sets are
            // non-trivial and exactly comparable.
            options.source_credit = 1;
            pipeline::net_generator generator(17, options);
            for (int i = 0; i < 4; ++i) {
                const petri_net net = generator.next();
                SCOPED_TRACE(std::string("family ") + pipeline::to_string(family) +
                             " tokens " + std::to_string(token_load) + " net " +
                             std::to_string(i));
                expect_deadlocks_preserved(
                    net, family == pipeline::net_family::choice_heavy);
            }
        }
    }
}

TEST(stubborn, deadlock_preservation_on_a_larger_choice_heavy_net)
{
    pipeline::generator_options options;
    options.family = pipeline::net_family::choice_heavy;
    options.sources = 3;
    options.depth = 4;
    options.defect_percent = 50;
    options.source_credit = 2;
    pipeline::net_generator generator(17, options);
    const petri_net net = generator.next(); // ~20k full states, ~90 reduced
    expect_deadlocks_preserved(net, true);
}

TEST(stubborn, reduced_parallel_identical_under_tight_budgets)
{
    pipeline::generator_options options;
    options.family = pipeline::net_family::free_choice;
    options.sources = 3;
    options.depth = 5;
    options.token_load = 2;
    options.source_credit = 2;
    pipeline::net_generator generator(23, options);
    const petri_net net = generator.next();

    // Budgets that truncate the reduced exploration mid-level: the parallel
    // renumbering must keep exactly the states the sequential reduced
    // engine keeps, truncation verdict included.
    for (const std::size_t max_states : {std::size_t{1}, std::size_t{7},
                                         std::size_t{25}, std::size_t{200}}) {
        SCOPED_TRACE("max_states " + std::to_string(max_states));
        const state_space sequential = explore_state_space(
            net, {.max_markings = max_states, .max_tokens_per_place = 64,
                  .reduction = reduction_kind::deadlock});
        for (const std::size_t threads : thread_counts) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            const state_space parallel = explore_parallel(
                net, {.max_markings = max_states,
                      .max_tokens_per_place = 64,
                      .threads = threads,
                      .reduction = reduction_kind::deadlock});
            expect_identical_spaces(sequential, parallel);
        }
    }
}

TEST(stubborn, explore_space_dispatch_carries_the_reduction)
{
    const petri_net net = independent_chains();
    reachability_options options;
    options.reduction = reduction_kind::deadlock;
    EXPECT_EQ(explore_space(net, options).state_count(), 3u);
    options.threads = 4;
    EXPECT_EQ(explore_space(net, options).state_count(), 3u);
}

// -- The ignoring problem ----------------------------------------------------

/// A tight two-state cycle (a1/a2) next to a cycle of choices: from y1
/// either branch b or branch c loops back.  The whole net is live, but a
/// deadlock stubborn reduction forever prefers the conflict-free
/// a-cycle — the singleton closure {a1} or {a2} always beats the choice
/// cluster — so every b/c transition stays enabled and is never fired: the
/// textbook ignoring problem.
petri_net cycle_of_choices()
{
    net_builder b("cycle_of_choices");
    const auto x1 = b.add_place("x1", 1);
    const auto x2 = b.add_place("x2");
    const auto y1 = b.add_place("y1", 1);
    const auto y2 = b.add_place("y2");
    const auto y3 = b.add_place("y3");
    const auto a1 = b.add_transition("a1");
    const auto a2 = b.add_transition("a2");
    const auto b1 = b.add_transition("b1");
    const auto b2 = b.add_transition("b2");
    const auto c1 = b.add_transition("c1");
    const auto c2 = b.add_transition("c2");
    b.add_arc(x1, a1);
    b.add_arc(a1, x2);
    b.add_arc(x2, a2);
    b.add_arc(a2, x1);
    b.add_arc(y1, b1);
    b.add_arc(b1, y2);
    b.add_arc(y2, b2);
    b.add_arc(b2, y1);
    b.add_arc(y1, c1);
    b.add_arc(c1, y3);
    b.add_arc(y3, c2);
    b.add_arc(c2, y1);
    return std::move(b).build();
}

TEST(stubborn, deadlock_reduction_starves_the_choice_cycle)
{
    const petri_net net = cycle_of_choices();
    const state_space full = explore_state_space(net, {});
    ASSERT_FALSE(full.truncated());
    EXPECT_EQ(full.state_count(), 6u);

    // Deadlock reduction: the a-cycle is expanded alone forever.  The graph
    // is deadlock-correct (no deadlock to find) but every b/c transition is
    // ignored, so liveness cannot be read off it.
    const state_space starved =
        explore_state_space(net, {.reduction = reduction_kind::deadlock});
    ASSERT_FALSE(starved.truncated());
    EXPECT_EQ(starved.state_count(), 2u);
    EXPECT_TRUE(deadlock_markings(net, starved).empty());
    std::set<std::string> fired;
    for (state_id s = 0; s < static_cast<state_id>(starved.state_count()); ++s) {
        for (const state_space_edge& edge : starved.successors(s)) {
            fired.insert(net.transition_name(edge.via));
        }
    }
    EXPECT_EQ(fired, (std::set<std::string>{"a1", "a2"}))
        << "only the a-cycle should ever fire under the deadlock reduction";
}

// -- The incremental enabled-set machinery itself ---------------------------

/// From-scratch enabled set of `tokens`, ascending.
std::vector<transition_id> scan_enabled(const petri_net& net,
                                        const std::int64_t* tokens)
{
    std::vector<transition_id> enabled;
    for (transition_id t : net.transitions()) {
        if (detail::enabled_in(net, tokens, t)) {
            enabled.push_back(t);
        }
    }
    return enabled;
}

TEST(enabled_sets, incremental_update_matches_scratch_recompute)
{
    // After any random firing sequence, the incrementally maintained
    // enabled set (parent set merged over affected[t]) must equal a full
    // recomputation — the invariant both engines and the stubborn closure
    // rely on.
    prng rng(4242);
    for (const pipeline::net_family family :
         {pipeline::net_family::marked_graph, pipeline::net_family::free_choice,
          pipeline::net_family::choice_heavy}) {
        for (const int token_load : {0, 3}) {
            pipeline::generator_options options;
            options.family = family;
            options.token_load = token_load;
            options.defect_percent = 30;
            pipeline::net_generator generator(91, options);
            const petri_net net = generator.next();
            SCOPED_TRACE(std::string("family ") + pipeline::to_string(family) +
                         " tokens " + std::to_string(token_load));

            const std::vector<std::vector<transition_id>> affected =
                detail::affected_transitions(net);
            tokens_vec tokens = net.initial_marking_vector();
            std::vector<transition_id> enabled = scan_enabled(net, tokens.data());
            std::vector<transition_id> merged;

            for (int step = 0; step < 200 && !enabled.empty(); ++step) {
                const transition_id t = enabled[rng.below(enabled.size())];
                for (const place_weight& in : net.inputs(t)) {
                    tokens[in.place.index()] -= in.weight;
                }
                for (const place_weight& out : net.outputs(t)) {
                    tokens[out.place.index()] += out.weight;
                }
                merged.clear();
                detail::merge_enabled(net, enabled, affected[t.index()],
                                      tokens.data(), merged);
                ASSERT_EQ(merged, scan_enabled(net, tokens.data()))
                    << "step " << step << " fired "
                    << net.transition_name(t);
                enabled = merged;
            }
        }
    }
}

} // namespace
} // namespace fcqss::pn
