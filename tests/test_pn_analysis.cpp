// Unit tests for the Petri-net analyses: invariants, explicit reachability
// and the queries over it, and Karp–Miller coverability.
#include <gtest/gtest.h>

#include "nets/paper_nets.hpp"
#include "pn/builder.hpp"
#include "pn/coverability.hpp"
#include "pn/invariants.hpp"
#include "pn/reachability.hpp"
#include "pn/structure.hpp"

namespace fcqss::pn {
namespace {

// A bounded strongly-connected net: two-place cycle with one token.
petri_net token_ring()
{
    net_builder b("ring");
    const auto p1 = b.add_place("p1", 1);
    const auto p2 = b.add_place("p2");
    const auto a = b.add_transition("a");
    const auto c = b.add_transition("c");
    b.add_arc(p1, a);
    b.add_arc(a, p2);
    b.add_arc(p2, c);
    b.add_arc(c, p1);
    return std::move(b).build();
}

TEST(invariants, t_invariants_of_ring)
{
    const auto invariants = t_invariants(token_ring());
    ASSERT_EQ(invariants.size(), 1u);
    EXPECT_EQ(invariants.front(), (linalg::int_vector{1, 1}));
}

TEST(invariants, p_invariants_of_ring)
{
    const auto invariants = p_invariants(token_ring());
    ASSERT_EQ(invariants.size(), 1u);
    EXPECT_EQ(invariants.front(), (linalg::int_vector{1, 1}));
    EXPECT_TRUE(is_conservative(token_ring()));
}

TEST(invariants, p_invariant_weighted_sum_preserved)
{
    const petri_net net = token_ring();
    const auto invariants = p_invariants(net);
    ASSERT_FALSE(invariants.empty());
    marking m = initial_marking(net);
    const std::int64_t before = weighted_token_sum(invariants[0], m.vector());
    fire(net, m, net.find_transition("a"));
    EXPECT_EQ(weighted_token_sum(invariants[0], m.vector()), before);
}

TEST(invariants, consistency_verdicts)
{
    EXPECT_TRUE(is_consistent(token_ring()));
    EXPECT_TRUE(is_consistent(nets::figure_3a()));
    // Fig. 3b IS consistent as a whole (the balanced vector exists); its
    // failure is per-reduction, not global.
    EXPECT_TRUE(is_consistent(nets::figure_3b()));

    // A pure producer chain has no T-invariant at all.
    net_builder b("prod");
    const auto t = b.add_transition("t");
    const auto p = b.add_place("p");
    b.add_arc(t, p);
    EXPECT_FALSE(is_consistent(b.build_copy()));
}

TEST(invariants, uncovered_transitions)
{
    net_builder b("half");
    const auto t = b.add_transition("t");
    const auto u = b.add_transition("u");
    const auto p = b.add_place("p", 1);
    b.add_arc(p, t);
    b.add_arc(t, p);
    const auto q = b.add_place("q");
    b.add_arc(u, q);
    const petri_net net = std::move(b).build();
    const auto invariants = t_invariants(net);
    const auto uncovered = transitions_uncovered_by(net, invariants);
    ASSERT_EQ(uncovered.size(), 1u);
    EXPECT_EQ(net.transition_name(uncovered.front()), "u");
}

TEST(reachability, ring_exploration)
{
    const petri_net net = token_ring();
    const state_space space = explore_space(net);
    EXPECT_FALSE(space.truncated());
    EXPECT_EQ(space.state_count(), 2u); // token in p1 / token in p2
    EXPECT_FALSE(find_deadlock(net, space).has_value());

    marking target(2);
    target.set_tokens(net.find_place("p2"), 1);
    EXPECT_TRUE(is_reachable(space, target));
    const auto path = shortest_path_to(space, target);
    ASSERT_TRUE(path.has_value());
    ASSERT_EQ(path->size(), 1u);
    EXPECT_EQ(net.transition_name(path->front()), "a");

    EXPECT_EQ(place_bounds(space), (std::vector<std::int64_t>{1, 1}));
}

TEST(reachability, detects_deadlock)
{
    net_builder b("dies");
    const auto p = b.add_place("p", 1);
    const auto t = b.add_transition("t");
    const auto q = b.add_place("q");
    b.add_arc(p, t);
    b.add_arc(t, q);
    const petri_net net = std::move(b).build();
    const state_space space = explore_space(net);
    const auto dead = find_deadlock(net, space);
    ASSERT_TRUE(dead.has_value());
    EXPECT_EQ(space.marking_of(*dead).tokens(net.find_place("q")), 1);
}

TEST(reachability, dead_transition_is_not_a_deadlock)
{
    // `never` can never fire, yet the ring keeps the net moving forever.
    net_builder b("deadt");
    const auto p1 = b.add_place("p1", 1);
    const auto p2 = b.add_place("p2");
    const auto a = b.add_transition("a");
    const auto c = b.add_transition("c");
    const auto never = b.add_transition("never");
    const auto q = b.add_place("q");
    b.add_arc(p1, a);
    b.add_arc(a, p2);
    b.add_arc(p2, c);
    b.add_arc(c, p1);
    b.add_arc(q, never); // q is never marked
    const petri_net net = std::move(b).build();
    EXPECT_EQ(find_deadlock(net, explore_space(net)), std::nullopt);
}

TEST(reachability, truncation_budget)
{
    // A source transition makes the state space infinite; the budget stops
    // exploration and reports truncation.
    const petri_net net = nets::figure_2();
    reachability_options options;
    options.max_markings = 50;
    const state_space space = explore_space(net, options);
    EXPECT_TRUE(space.truncated());
    EXPECT_LE(space.state_count(), 50u);
}

TEST(coverability, bounded_ring)
{
    const coverability_tree tree = build_coverability_tree(token_ring());
    EXPECT_FALSE(tree.truncated);
    EXPECT_TRUE(is_bounded(tree));
    EXPECT_TRUE(is_k_bounded(tree, 1));
    EXPECT_TRUE(unbounded_places(tree).empty());
}

TEST(coverability, source_transition_unbounded)
{
    // This is the paper's central distinction: a net with source transitions
    // is unbounded under arbitrary firing, yet QSS-schedulable because the
    // schedule controls firing.
    const petri_net net = nets::figure_3a();
    const coverability_tree tree = build_coverability_tree(net);
    EXPECT_FALSE(is_bounded(tree));
    EXPECT_FALSE(unbounded_places(tree).empty());
}

TEST(coverability, covering_query)
{
    const petri_net net = nets::figure_2();
    const coverability_tree tree = build_coverability_tree(net);
    marking want(net.place_count());
    want.set_tokens(net.find_place("p1"), 5);
    EXPECT_TRUE(is_coverable(tree, want)); // t1 can pump p1 arbitrarily high
}

TEST(coverability, weighted_self_feeding_growth)
{
    // t consumes 1 and produces 2: strictly growing -> omega.
    net_builder b("grow");
    const auto p = b.add_place("p", 1);
    const auto t = b.add_transition("t");
    b.add_arc(p, t);
    b.add_arc(t, p, 2);
    const coverability_tree tree = build_coverability_tree(std::move(b).build());
    EXPECT_FALSE(is_bounded(tree));
}

} // namespace
} // namespace fcqss::pn
