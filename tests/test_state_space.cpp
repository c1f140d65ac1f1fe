// Tests for the arena-interned state-space engine: marking_store interning,
// the token_game replay helper, the fire_unchecked fast path, the id-range
// views, and — the load-bearing one — a differential sweep asserting that
// explore_space() visits the identical states (read back through
// marking_of), edge lists and truncation as explore_reference() (the naive
// map-based BFS) on seeded generator nets of all three families, with
// defects and token load, under every budget.
#include <gtest/gtest.h>

#include "nets/paper_nets.hpp"
#include "pipeline/net_generator.hpp"
#include "pn/builder.hpp"
#include "pn/firing.hpp"
#include "pn/marking_store.hpp"
#include "pn/reachability.hpp"
#include "pn/state_space.hpp"
#include "test_util.hpp"

namespace fcqss::pn {
namespace {

TEST(marking_store, interns_and_deduplicates)
{
    marking_store store(3);
    EXPECT_EQ(store.width(), 3u);
    EXPECT_EQ(store.size(), 0u);

    const std::vector<std::int64_t> a{1, 0, 2};
    const std::vector<std::int64_t> b{0, 5, 0};
    const std::uint64_t hash_a = marking_store::hash_tokens(a.data(), a.size());
    const std::uint64_t hash_b = marking_store::hash_tokens(b.data(), b.size());

    const auto [id_a, fresh_a] = store.intern(a.data(), hash_a);
    EXPECT_TRUE(fresh_a);
    EXPECT_EQ(id_a, 0u);
    const auto [id_b, fresh_b] = store.intern(b.data(), hash_b);
    EXPECT_TRUE(fresh_b);
    EXPECT_EQ(id_b, 1u);

    const auto [again, fresh_again] = store.intern(a.data(), hash_a);
    EXPECT_FALSE(fresh_again);
    EXPECT_EQ(again, id_a);
    EXPECT_EQ(store.size(), 2u);

    EXPECT_EQ(store.find(a.data(), hash_a), id_a);
    EXPECT_EQ(store.find(b.data(), hash_b), id_b);
    const std::vector<std::int64_t> absent{9, 9, 9};
    EXPECT_EQ(store.find(absent.data(),
                         marking_store::hash_tokens(absent.data(), absent.size())),
              invalid_state);

    const auto span_a = store.tokens(id_a);
    EXPECT_TRUE(std::equal(span_a.begin(), span_a.end(), a.begin()));
    EXPECT_EQ(store.stored_hash(id_b), hash_b);
}

TEST(marking_store, rows_survive_growth_and_widening)
{
    marking_store store(4);
    EXPECT_EQ(store.count_bytes(), 1u);
    std::vector<std::int64_t> tokens(4, 0);
    store.intern(tokens.data(), marking_store::hash_tokens(tokens.data(), tokens.size()));
    // Intern enough distinct markings to force table growth, new chunks and
    // one widening (counts pass 255 at i = 256).
    for (std::int64_t i = 1; i <= 50000; ++i) {
        tokens[0] = i;
        tokens[3] = i % 7;
        const auto [id, fresh] = store.intern(
            tokens.data(), marking_store::hash_tokens(tokens.data(), tokens.size()));
        ASSERT_TRUE(fresh);
        ASSERT_EQ(id, static_cast<state_id>(i));
    }
    EXPECT_EQ(store.size(), 50001u);
    EXPECT_EQ(store.count_bytes(), 2u);
    EXPECT_EQ(store.stats().widenings, 1u);
    // Rows interned before the widening decode to what was interned.
    EXPECT_EQ(store.tokens(0), (std::vector<std::int64_t>{0, 0, 0, 0}));
    EXPECT_EQ(store.tokens(200), (std::vector<std::int64_t>{200, 0, 0, 200 % 7}));
    EXPECT_EQ(store.tokens(50000), (std::vector<std::int64_t>{50000, 0, 0, 50000 % 7}));
    EXPECT_GT(store.memory_bytes(), 50000u * 4 * 2);
    EXPECT_LT(store.arena_bytes(), 50000u * 4 * sizeof(std::int64_t));
}

TEST(marking_store, respects_max_states)
{
    marking_store store(1);
    std::int64_t v = 0;
    EXPECT_TRUE(store.intern(&v, marking_store::hash_tokens(&v, 1), 1).second);
    v = 1;
    const auto [id, fresh] = store.intern(&v, marking_store::hash_tokens(&v, 1), 1);
    EXPECT_EQ(id, invalid_state);
    EXPECT_FALSE(fresh);
    EXPECT_EQ(store.size(), 1u);
    // An already-interned marking is still found at the cap.
    v = 0;
    EXPECT_EQ(store.intern(&v, marking_store::hash_tokens(&v, 1), 1).first, 0u);
}

TEST(marking_store, component_mix_updates_hash_incrementally)
{
    std::vector<std::int64_t> tokens{3, 1, 4, 1, 5};
    std::uint64_t hash = marking_store::hash_tokens(tokens.data(), tokens.size());
    // Change two components the way a firing would and patch the hash.
    hash ^= marking_store::component_mix(1, tokens[1]);
    tokens[1] -= 1;
    hash ^= marking_store::component_mix(1, tokens[1]);
    hash ^= marking_store::component_mix(4, tokens[4]);
    tokens[4] += 2;
    hash ^= marking_store::component_mix(4, tokens[4]);
    EXPECT_EQ(hash, marking_store::hash_tokens(tokens.data(), tokens.size()));
}

/// The engine's result equals the reference BFS's, state by state.
void expect_matches_reference(const petri_net& net, const reachability_options& budget)
{
    EXPECT_EQ(testutil::difference_from_reference(explore_space(net, budget),
                                                  explore_reference(net, budget)),
              "");
}

TEST(state_space, differential_against_reference_on_generated_nets)
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
        pipeline::net_generator generator(7, options);
        for (int i = 0; i < 6; ++i) {
            const petri_net net = generator.next();
            const reachability_options budget{.max_markings = 1500,
                                              .max_tokens_per_place = 64};
            SCOPED_TRACE(std::string("family ") + pipeline::to_string(family) +
                         " net " + std::to_string(i));
            expect_matches_reference(net, budget);
        }
    }
}

TEST(state_space, differential_under_tight_budgets)
{
    pipeline::generator_options options;
    options.family = pipeline::net_family::free_choice;
    options.sources = 2;
    options.depth = 4;
    options.token_load = 1;
    pipeline::net_generator generator(13, options);
    const petri_net net = generator.next();

    // Tight state cap: both must truncate at the same point.
    const reachability_options tight{.max_markings = 25, .max_tokens_per_place = 64};
    EXPECT_TRUE(explore_space(net, tight).truncated());
    expect_matches_reference(net, tight);
    // Tight token cap: the over-cap edge-skipping must agree too.
    expect_matches_reference(net, {.max_markings = 5000, .max_tokens_per_place = 2});
}

TEST(state_space, differential_on_paper_nets)
{
    for (const auto& build : {nets::figure_1a, nets::figure_2, nets::figure_4}) {
        expect_matches_reference(build(), {.max_markings = 5000,
                                           .max_tokens_per_place = 1 << 10});
    }
}

TEST(token_game, matches_marking_semantics)
{
    const petri_net net = nets::figure_2();
    token_game game(net);
    marking m = initial_marking(net);
    EXPECT_EQ(game.tokens(), m.vector());

    // Walk a few eager steps, comparing against the marking-based firing.
    for (int step = 0; step < 20; ++step) {
        const auto enabled = enabled_transitions(net, m);
        if (enabled.empty()) {
            break;
        }
        const transition_id t = enabled[static_cast<std::size_t>(step) % enabled.size()];
        EXPECT_TRUE(game.enabled(t));
        EXPECT_TRUE(game.try_fire(t));
        fire(net, m, t);
        ASSERT_EQ(game.tokens(), m.vector());
    }

    game.reset();
    EXPECT_TRUE(game.at_initial());
    EXPECT_EQ(game.tokens(), net.initial_marking_vector());
}

TEST(token_game, run_reports_first_failing_position)
{
    net_builder b("chain");
    const auto t1 = b.add_transition("t1");
    const auto t2 = b.add_transition("t2");
    const auto p = b.add_place("p");
    b.add_arc(t1, p);
    b.add_arc(p, t2, 2);
    const petri_net net = std::move(b).build();

    token_game game(net);
    // t2 needs two tokens: fails at position 1, then succeeds after another t1.
    const auto failed = game.run({t1, t2});
    ASSERT_TRUE(failed.has_value());
    EXPECT_EQ(*failed, 1u);
    EXPECT_FALSE(game.run({t1, t2}).has_value());
}

TEST(firing, fire_unchecked_matches_fire)
{
    const petri_net net = nets::figure_1a();
    marking checked = initial_marking(net);
    marking unchecked = initial_marking(net);
    for (int step = 0; step < 10; ++step) {
        const auto enabled = enabled_transitions(net, checked);
        if (enabled.empty()) {
            break;
        }
        fire(net, checked, enabled.front());
        fire_unchecked(net, unchecked, enabled.front());
        ASSERT_EQ(checked, unchecked);
    }
}

TEST(petri_net, id_range_views)
{
    const petri_net net = nets::figure_1a();
    const auto places = net.places();
    const auto transitions = net.transitions();
    EXPECT_EQ(places.size(), net.place_count());
    EXPECT_EQ(transitions.size(), net.transition_count());
    EXPECT_FALSE(places.empty());
    std::int32_t expected = 0;
    for (const place_id p : places) {
        EXPECT_EQ(p.value(), expected++);
    }
    expected = 0;
    for (const transition_id t : transitions) {
        EXPECT_EQ(t.value(), expected++);
    }
}

} // namespace
} // namespace fcqss::pn
