// Tests for pn::mutator — the fuzz harness's mutation engine.  The
// properties pinned here are exactly the ones pipeline/fuzz.hpp relies on:
// seed determinism (a finding's seed is a full reproducer), purity of
// apply_mutations over plan subsets (the shrinker replays subsets), the
// structure-preserving contract of perturb_weight/perturb_marking, and
// mutants surviving a write -> parse -> write round trip bit-identically
// (reproducers dropped into tests/corpus/ stay canonical).
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "pipeline/net_generator.hpp"
#include "pipeline/service.hpp"
#include "pn/builder.hpp"
#include "pn/mutator.hpp"
#include "pnio/parser.hpp"
#include "pnio/writer.hpp"

namespace fcqss::pn {
namespace {

pipeline::generator_options family_options(pipeline::net_family family)
{
    pipeline::generator_options options;
    options.family = family;
    options.sources = 2;
    options.depth = 3;
    options.token_load = 1;
    options.defect_percent = 25;
    options.source_credit = 1;
    return options;
}

const std::vector<pipeline::net_family>& every_family()
{
    static const std::vector<pipeline::net_family> families = {
        pipeline::net_family::marked_graph,
        pipeline::net_family::free_choice,
        pipeline::net_family::choice_heavy,
        pipeline::net_family::client_server,
        pipeline::net_family::layered_pipeline,
        pipeline::net_family::bursty_multirate,
    };
    return families;
}

petri_net base_net(pipeline::net_family family, std::uint64_t seed)
{
    pipeline::net_generator generator(seed, family_options(family));
    return generator.next();
}

/// A net's structure as a comparable value: node names plus the arc set
/// (direction, place name, transition name) — everything except weights and
/// the initial marking.
using arc_key = std::tuple<bool, std::string, std::string>;
struct structure {
    std::vector<std::string> places;
    std::vector<std::string> transitions;
    std::set<arc_key> arcs;

    friend bool operator==(const structure&, const structure&) = default;
};

structure structure_of(const petri_net& net)
{
    structure s;
    for (const place_id p : net.places()) {
        s.places.push_back(net.place_name(p));
    }
    for (const transition_id t : net.transitions()) {
        s.transitions.push_back(net.transition_name(t));
        for (const place_weight& in : net.inputs(t)) {
            s.arcs.emplace(true, net.place_name(in.place), net.transition_name(t));
        }
        for (const place_weight& out : net.outputs(t)) {
            s.arcs.emplace(false, net.place_name(out.place), net.transition_name(t));
        }
    }
    return s;
}

TEST(mutator, plans_are_seed_deterministic)
{
    const petri_net base = base_net(pipeline::net_family::free_choice, 3);
    const std::vector<mutation> plan_a = plan_mutations(base, 99);
    const std::vector<mutation> plan_b = plan_mutations(base, 99);
    EXPECT_EQ(plan_a, plan_b);
    EXPECT_EQ(plan_a.size(), static_cast<std::size_t>(mutation_options{}.count));

    // Seeds spread: over a handful of seeds at least one plan must differ.
    bool any_different = false;
    for (std::uint64_t seed = 100; seed < 105; ++seed) {
        any_different |= plan_mutations(base, seed) != plan_a;
    }
    EXPECT_TRUE(any_different);
}

TEST(mutator, mutants_are_seed_deterministic_across_families)
{
    for (const pipeline::net_family family : every_family()) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            const petri_net base = base_net(family, seed);
            const mutation_result a = mutate(base, seed);
            const mutation_result b = mutate(base, seed);
            EXPECT_EQ(a.applied, b.applied);
            EXPECT_EQ(pnio::write_net(a.net), pnio::write_net(b.net))
                << pipeline::to_string(family) << " seed " << seed;
        }
    }
}

// Pins the mutants across commits: the fuzz harness mutates generated nets
// with these plans, and tests/corpus holds such mutants.  The base net was
// picked because seeds 1-5 draw both perturbation ranges up to their
// maxima (weight 4, marking 3).  The hashes are pipeline::content_hash
// (FNV-1a of write_net).
TEST(mutator, mutants_are_pinned_across_commits)
{
    const std::uint64_t pinned[] = {0x083e38589bb0efe1ULL, 0xa0988cbf4a2d1b97ULL,
                                    0x6d7df7dff538499aULL, 0x45afeee1f5cd3594ULL,
                                    0xc57f5382d53d8f01ULL};
    const petri_net base = base_net(pipeline::net_family::free_choice, 5);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        EXPECT_EQ(pipeline::content_hash(mutate(base, seed).net), pinned[seed - 1])
            << "seed " << seed;
    }
}

TEST(mutator, applied_subset_replays_bit_identically)
{
    // The shrink contract: re-applying exactly the applied subset yields the
    // same net, and nothing in it is skipped the second time around.
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const petri_net base =
            base_net(every_family()[seed % every_family().size()], seed);
        mutation_options options;
        options.count = 8;
        const mutation_result first = mutate(base, seed, options);
        const mutation_result replay = apply_mutations(base, first.applied);
        EXPECT_EQ(replay.applied, first.applied) << "seed " << seed;
        EXPECT_EQ(pnio::write_net(replay.net), pnio::write_net(first.net))
            << "seed " << seed;
    }
}

TEST(mutator, structure_preserving_kinds_never_touch_structure)
{
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        const petri_net base =
            base_net(every_family()[seed % every_family().size()], seed);
        std::vector<mutation> plan;
        for (const mutation& m : plan_mutations(base, seed, {.count = 12})) {
            if (m.kind == mutation_kind::perturb_weight ||
                m.kind == mutation_kind::perturb_marking) {
                plan.push_back(m);
            }
        }
        // Force at least one of each so the test never degenerates.
        plan.push_back({mutation_kind::perturb_weight, 7, 0, 3});
        plan.push_back({mutation_kind::perturb_marking, 2, 0, 2});
        const mutation_result result = apply_mutations(base, plan);
        EXPECT_EQ(structure_of(result.net), structure_of(base)) << "seed " << seed;
    }
}

TEST(mutator, mutants_round_trip_through_pn_format)
{
    for (const pipeline::net_family family : every_family()) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            const petri_net base = base_net(family, seed);
            const mutation_result result = mutate(base, seed, {.count = 6});
            const std::string text = pnio::write_net(result.net);
            const petri_net reparsed = pnio::parse_net(text);
            EXPECT_EQ(pnio::write_net(reparsed), text)
                << pipeline::to_string(family) << " seed " << seed;
        }
    }
}

TEST(mutator, always_keeps_a_transition)
{
    net_builder builder("tiny");
    const place_id p = builder.add_place("p", 1);
    const transition_id t = builder.add_transition("t");
    builder.add_arc(p, t);
    const petri_net base = std::move(builder).build();

    std::vector<mutation> plan;
    for (std::uint32_t i = 0; i < 20; ++i) {
        plan.push_back({mutation_kind::drop_transition, i, 0, 1});
    }
    const mutation_result result = apply_mutations(base, plan);
    EXPECT_GE(result.net.transition_count(), 1u);
    // Dropping the last transition is never applicable, so nothing applied.
    EXPECT_TRUE(result.applied.empty());
}

TEST(mutator, inapplicable_mutations_are_skipped_not_applied)
{
    // p -> t: no place has two consumers, so split_place cannot apply;
    // merge_places needs two places.
    net_builder builder("chain");
    const place_id p = builder.add_place("p", 1);
    const transition_id t = builder.add_transition("t");
    builder.add_arc(p, t);
    const petri_net base = std::move(builder).build();

    const std::vector<mutation> plan = {
        {mutation_kind::split_place, 0, 0, 1},
        {mutation_kind::merge_places, 0, 1, 1},
    };
    const mutation_result result = apply_mutations(base, plan);
    EXPECT_TRUE(result.applied.empty());
    EXPECT_EQ(pnio::write_net(result.net), pnio::write_net(base));
}

TEST(mutator, kind_names_are_stable)
{
    EXPECT_STREQ(to_string(mutation_kind::add_arc), "add_arc");
    EXPECT_STREQ(to_string(mutation_kind::perturb_marking), "perturb_marking");
    EXPECT_STREQ(to_string(mutation_kind::duplicate_transition),
                 "duplicate_transition");
}

} // namespace
} // namespace fcqss::pn
