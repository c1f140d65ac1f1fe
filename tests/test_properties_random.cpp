// Property-based sweeps over seeded random free-choice nets: the synthesized
// schedules, invariants and generated code must satisfy their defining
// invariants on every instance.
#include <gtest/gtest.h>

#include <map>

#include "codegen/interpreter.hpp"
#include "codegen/task_codegen.hpp"
#include "pn/firing.hpp"
#include "pn/invariants.hpp"
#include "pn/net_class.hpp"
#include "pn/structure.hpp"
#include "qss/reduction.hpp"
#include "qss/scheduler.hpp"
#include "qss/task_partition.hpp"
#include "qss/valid_schedule.hpp"
#include "test_util.hpp"

namespace fcqss {
namespace {

class random_net_property : public ::testing::TestWithParam<int> {
protected:
    pn::petri_net make_net() const
    {
        return testutil::random_free_choice_net(
            static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
    }
};

TEST_P(random_net_property, generator_produces_equal_conflict_free_choice)
{
    const pn::petri_net net = make_net();
    EXPECT_TRUE(pn::is_free_choice(net));
    EXPECT_TRUE(pn::is_equal_conflict_free_choice(net));
    EXPECT_FALSE(pn::source_transitions(net).empty());
}

TEST_P(random_net_property, p_invariants_conserved_under_random_firing)
{
    const pn::petri_net net = make_net();
    const auto invariants = pn::p_invariants(net);
    pn::marking m = pn::initial_marking(net);
    std::vector<std::int64_t> sums;
    for (const auto& y : invariants) {
        sums.push_back(pn::weighted_token_sum(y, m.vector()));
    }
    testutil::prng rng(GetParam() + 99);
    for (int step = 0; step < 60; ++step) {
        const auto enabled = pn::enabled_transitions(net, m);
        if (enabled.empty()) {
            break;
        }
        pn::fire(net, m, enabled[rng.below(enabled.size())]);
        for (std::size_t i = 0; i < invariants.size(); ++i) {
            EXPECT_EQ(pn::weighted_token_sum(invariants[i], m.vector()), sums[i]);
        }
    }
}

TEST_P(random_net_property, every_reduction_is_conflict_free_subnet)
{
    const pn::petri_net net = make_net();
    const auto clusters = qss::choice_clusters(net);
    for (const qss::t_allocation& a : testutil::enumerate_allocations(clusters)) {
        const qss::t_reduction r = qss::reduce(net, clusters, a);
        const qss::reduced_net sub = materialize(net, r);
        EXPECT_TRUE(pn::is_conflict_free(sub.net));
        // Sources of the original always survive.
        for (pn::transition_id s : pn::source_transitions(net)) {
            EXPECT_TRUE(r.keep_transition[s.index()]);
        }
    }
}

TEST_P(random_net_property, scheduler_produces_valid_schedule)
{
    const pn::petri_net net = make_net();
    const qss::qss_result result = qss::quasi_static_schedule(net);
    ASSERT_TRUE(result.schedulable) << net.name() << ": " << result.diagnosis;

    // Every cycle is a finite complete cycle realizing its cycle vector.
    for (const qss::schedule_entry& entry : result.entries) {
        EXPECT_TRUE(pn::is_finite_complete_cycle(net, entry.analysis.cycle));
        EXPECT_EQ(pn::firing_count_vector(net, entry.analysis.cycle),
                  entry.analysis.cycle_vector);
    }

    // Definition 3.1 holds for the whole set.
    const auto violation = qss::check_valid_schedule(net, result.cycles());
    EXPECT_EQ(violation, std::nullopt)
        << net.name() << ": " << (violation ? violation->describe(net) : "");
}

TEST_P(random_net_property, codegen_matches_eager_reference)
{
    const pn::petri_net net = make_net();
    const qss::qss_result result = qss::quasi_static_schedule(net);
    ASSERT_TRUE(result.schedulable);
    const qss::task_partition partition = qss::partition_tasks(net, result);
    const cgen::generated_program program =
        cgen::generate_program(net, result, partition);
    cgen::program_instance instance(program);

    // Per-place decision streams make choice resolution independent of the
    // order in which different places query.
    std::map<std::int32_t, testutil::prng> code_streams;
    std::map<std::int32_t, testutil::prng> ref_streams;
    const auto stream_choice = [&](std::map<std::int32_t, testutil::prng>& streams,
                                   pn::place_id p) {
        auto [it, inserted] = streams.try_emplace(
            p.value(), static_cast<std::uint64_t>(p.value()) * 31337 + GetParam());
        return static_cast<int>(it->second.below(net.consumers(p).size()));
    };

    std::map<std::int32_t, std::int64_t> code_fired;
    std::map<std::int32_t, std::int64_t> ref_fired;
    pn::marking reference = pn::initial_marking(net);

    const auto sources = pn::source_transitions(net);
    testutil::prng source_picker(GetParam() + 5);
    for (int round = 0; round < 12; ++round) {
        const pn::transition_id source = sources[source_picker.below(sources.size())];
        instance.run_source(
            source, [&](pn::place_id p) { return stream_choice(code_streams, p); },
            [&](pn::transition_id t) { ++code_fired[t.value()]; });
        testutil::eager_react(
            net, reference, source,
            [&](pn::place_id p) { return stream_choice(ref_streams, p); },
            [&](pn::transition_id t) { ++ref_fired[t.value()]; });
    }

    EXPECT_EQ(code_fired, ref_fired) << "fired multisets diverge on " << net.name();

    // Counter state must equal the reference marking on every counted place;
    // elided places must be empty in the reference too.
    for (pn::place_id p : net.places()) {
        bool counted = false;
        for (const cgen::counter_decl& counter : program.counters) {
            counted = counted || counter.place == p;
        }
        if (counted) {
            EXPECT_EQ(instance.counter(p), reference.tokens(p))
                << net.name() << " place " << net.place_name(p);
        } else {
            EXPECT_EQ(reference.tokens(p), 0)
                << net.name() << " elided place " << net.place_name(p)
                << " should never hold tokens at quiescence";
        }
    }
}

TEST_P(random_net_property, task_partition_covers_all_fired_transitions)
{
    const pn::petri_net net = make_net();
    const qss::qss_result result = qss::quasi_static_schedule(net);
    ASSERT_TRUE(result.schedulable);
    const qss::task_partition partition = qss::partition_tasks(net, result);
    EXPECT_TRUE(partition.detached.empty());

    std::vector<bool> owned(net.transition_count(), false);
    for (const qss::task_group& task : partition.tasks) {
        for (pn::transition_id t : task.members) {
            EXPECT_FALSE(owned[t.index()]) << "transition in two tasks";
            owned[t.index()] = true;
        }
    }
    // Everything fired by some cycle is owned by exactly one task.
    for (const qss::schedule_entry& entry : result.entries) {
        for (pn::transition_id t : entry.analysis.cycle) {
            EXPECT_TRUE(owned[t.index()]) << net.transition_name(t);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, random_net_property, ::testing::Range(0, 30));

} // namespace
} // namespace fcqss
