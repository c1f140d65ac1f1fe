// Cross-analysis agreement properties: independent algorithms deciding the
// same question must agree — Karp–Miller vs explicit reachability for
// boundedness, the engine's deadlock scan vs the reference graph's, and QSS
// schedules staying bounded under their own cycles.  The QSS verdict has no
// independent oracle yet: the brute-force allocation oracle in
// test_qss_enumeration.cpp (testutil::brute_force_schedule) enumerates the
// T-allocations on its own but calls qss::schedule_reduction for each
// reduction's Def. 3.5 check, so it checks the enumeration, not the verdict
// logic.
#include <gtest/gtest.h>

#include "nets/paper_nets.hpp"
#include "pn/builder.hpp"
#include "pn/coverability.hpp"
#include "pn/invariants.hpp"
#include "pn/reachability.hpp"
#include "qss/scheduler.hpp"
#include "test_util.hpp"

namespace fcqss {
namespace {

// A bounded strongly-connected random net: ring of `n` stages with `tokens`
// circulating tokens (always bounded, always live for tokens >= 1).
pn::petri_net token_ring(int stages, int tokens)
{
    pn::net_builder b("ring" + std::to_string(stages));
    std::vector<pn::place_id> places;
    std::vector<pn::transition_id> transitions;
    for (int i = 0; i < stages; ++i) {
        places.push_back(b.add_place("p" + std::to_string(i), i == 0 ? tokens : 0));
        transitions.push_back(b.add_transition("t" + std::to_string(i)));
    }
    for (int i = 0; i < stages; ++i) {
        b.add_arc(places[static_cast<std::size_t>(i)],
                  transitions[static_cast<std::size_t>(i)]);
        b.add_arc(transitions[static_cast<std::size_t>(i)],
                  places[static_cast<std::size_t>((i + 1) % stages)]);
    }
    return std::move(b).build();
}

class ring_sizes : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ring_sizes, karp_miller_agrees_with_reachability)
{
    const auto [stages, tokens] = GetParam();
    const pn::petri_net net = token_ring(stages, tokens);

    const pn::coverability_tree tree = pn::build_coverability_tree(net);
    ASSERT_FALSE(tree.truncated);
    EXPECT_TRUE(pn::is_bounded(tree));

    const pn::state_space space = pn::explore_space(net);
    ASSERT_FALSE(space.truncated());

    // The coverability tree's k-bound agrees with the explicit max.
    const auto bounds = pn::place_bounds(space);
    std::int64_t max_tokens = 0;
    for (std::int64_t tks : bounds) {
        max_tokens = std::max(max_tokens, tks);
    }
    EXPECT_TRUE(pn::is_k_bounded(tree, max_tokens));
    if (max_tokens > 0) {
        EXPECT_FALSE(pn::is_k_bounded(tree, max_tokens - 1));
    }
}

INSTANTIATE_TEST_SUITE_P(rings, ring_sizes,
                         ::testing::Combine(::testing::Values(2, 3, 5),
                                            ::testing::Values(1, 2, 3)));

TEST(agreement, source_nets_unbounded_but_qss_schedulable)
{
    // The paper's core distinction, checked on every paper net with sources:
    // Karp–Miller says unbounded (arbitrary firing), the QSS says
    // schedulable (controlled firing) — or rejects for 3b/7 regardless.
    for (const pn::petri_net& net :
         {nets::figure_3a(), nets::figure_4(), nets::figure_5()}) {
        EXPECT_FALSE(pn::is_bounded(pn::build_coverability_tree(net))) << net.name();
        EXPECT_TRUE(qss::quasi_static_schedule(net).schedulable) << net.name();
    }
}

TEST(agreement, qss_schedulable_nets_bounded_under_their_schedules)
{
    // Executing only schedule cycles keeps every place within the peaks the
    // schedule itself exhibits — repeated over many random mixed rounds.
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const pn::petri_net net = testutil::random_free_choice_net(seed * 977 + 11);
        const qss::qss_result result = qss::quasi_static_schedule(net);
        ASSERT_TRUE(result.schedulable);
        const auto cycles = result.cycles();

        testutil::prng rng(seed);
        pn::marking m = pn::initial_marking(net);
        std::vector<std::int64_t> peak(net.place_count(), 0);
        for (int round = 0; round < 32; ++round) {
            const auto& cycle = cycles[rng.below(cycles.size())];
            for (pn::transition_id t : cycle) {
                pn::fire(net, m, t);
                for (pn::place_id p : net.places()) {
                    peak[p.index()] = std::max(peak[p.index()], m.tokens(p));
                }
            }
            EXPECT_EQ(m, pn::initial_marking(net)); // cycle property
        }
        // Peaks across rounds never exceed the single-pass peaks: bounded
        // memory for infinite execution, the paper's definition of success.
        std::int64_t worst = 0;
        for (std::int64_t tks : peak) {
            worst = std::max(worst, tks);
        }
        EXPECT_LT(worst, 1000) << net.name();
    }
}

TEST(agreement, deadlock_freedom_matches_enabledness_scan)
{
    const pn::petri_net net = token_ring(3, 1);
    EXPECT_EQ(pn::find_deadlock(net, pn::explore_space(net)), std::nullopt);
    EXPECT_EQ(pn::find_deadlock(net, pn::explore_reference(net)), std::nullopt);
}

} // namespace
} // namespace fcqss
