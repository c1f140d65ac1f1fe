// Unit tests for the QSS building blocks: conflict clusters, T-allocations,
// the Reduction Algorithm's rules, per-reduction schedulability and the task
// partition — beyond the end-to-end paper figures in test_qss_paper.cpp.
#include <gtest/gtest.h>

#include "base/error.hpp"
#include "nets/paper_nets.hpp"
#include "pn/builder.hpp"
#include "qss/conflict_clusters.hpp"
#include "qss/reduction.hpp"
#include "qss/schedulability.hpp"
#include "qss/scheduler.hpp"
#include "qss/t_allocation.hpp"
#include "qss/task_partition.hpp"
#include "test_util.hpp"

namespace fcqss::qss {
namespace {

using pn::petri_net;

TEST(clusters, extraction_and_keys)
{
    const petri_net net = nets::figure_3a();
    const auto clusters = choice_clusters(net);
    ASSERT_EQ(clusters.size(), 1u);
    EXPECT_EQ(net.place_name(clusters[0].place), "p1");
    ASSERT_EQ(clusters[0].alternatives.size(), 2u);
    EXPECT_TRUE(in_any_cluster(clusters, net.find_transition("t2")));
    EXPECT_FALSE(in_any_cluster(clusters, net.find_transition("t4")));

    const auto keys = conflict_priority_keys(net, clusters);
    // t2 and t3 share the cluster key (t2's id); others keep their own.
    EXPECT_EQ(keys[net.find_transition("t2").index()],
              keys[net.find_transition("t3").index()]);
    EXPECT_EQ(keys[net.find_transition("t4").index()],
              net.find_transition("t4").value());
}

TEST(clusters, rejects_non_free_choice)
{
    EXPECT_THROW((void)choice_clusters(nets::figure_1b()), domain_error);
}

TEST(clusters, rejects_unequal_choice_weights)
{
    pn::net_builder b("uneq");
    const auto p = b.add_place("p");
    const auto src = b.add_transition("s");
    const auto a = b.add_transition("a");
    const auto c = b.add_transition("c");
    b.add_arc(src, p);
    b.add_arc(p, a, 1);
    b.add_arc(p, c, 2);
    EXPECT_THROW((void)choice_clusters(std::move(b).build()), domain_error);
}

TEST(allocations, enumeration_counts)
{
    const petri_net net = nets::figure_3a();
    const auto clusters = choice_clusters(net);
    EXPECT_EQ(allocation_count(clusters), 2u);
    // One entry per allocation here, in odometer order.
    const qss_result result = quasi_static_schedule(net);
    EXPECT_EQ(result.allocations_enumerated, 2u);
    ASSERT_EQ(result.entries.size(), 2u);
    EXPECT_EQ(result.entries[0].reduction.allocation.chosen[0], net.find_transition("t2"));
    EXPECT_EQ(result.entries[1].reduction.allocation.chosen[0], net.find_transition("t3"));
}

TEST(allocations, excluded_and_text)
{
    const petri_net net = nets::figure_3a();
    const auto clusters = choice_clusters(net);
    const t_allocation a{{net.find_transition("t2")}};
    const auto excluded = excluded_transitions(clusters, a);
    ASSERT_EQ(excluded.size(), 1u);
    EXPECT_EQ(excluded.front(), net.find_transition("t3"));
    EXPECT_EQ(to_string(net, clusters, a), "{p1 -> t2}");

    t_allocation wrong_size;
    EXPECT_THROW((void)excluded_transitions(clusters, wrong_size), model_error);
}

TEST(allocations, no_choices_single_empty_allocation)
{
    const qss_result result = quasi_static_schedule(nets::figure_2());
    EXPECT_TRUE(result.clusters.empty());
    EXPECT_EQ(result.allocations_enumerated, 1u);
    ASSERT_EQ(result.entries.size(), 1u);
    EXPECT_TRUE(result.entries.front().reduction.allocation.chosen.empty());
}

TEST(reduction, is_conflict_free_and_subnet)
{
    const petri_net net = nets::figure_5();
    const auto clusters = choice_clusters(net);
    for (const t_allocation& a : testutil::enumerate_allocations(clusters)) {
        const t_reduction r = reduce(net, clusters, a);
        const reduced_net sub = materialize(net, r);
        // Every reduction is a conflict-free subnet of the original.
        for (pn::place_id p : sub.net.places()) {
            EXPECT_LE(sub.net.consumers(p).size(), 1u);
        }
        EXPECT_LE(sub.net.transition_count(), net.transition_count());
        for (pn::transition_id t : sub.net.transitions()) {
            EXPECT_TRUE(net.find_transition(sub.net.transition_name(t)).valid());
        }
    }
}

TEST(reduction, counts_and_equality)
{
    const petri_net net = nets::figure_5();
    const auto clusters = choice_clusters(net);
    const t_allocation a1{{net.find_transition("t2")}};
    const t_reduction r1 = reduce(net, clusters, a1);
    EXPECT_EQ(r1.kept_transition_count(), 6u);
    EXPECT_EQ(r1.kept_place_count(), 4u);
    EXPECT_TRUE(r1.same_subnet(reduce(net, clusters, a1)));
    const t_allocation a2{{net.find_transition("t3")}};
    EXPECT_FALSE(r1.same_subnet(reduce(net, clusters, a2)));
}

TEST(reduction, self_loop_state_is_not_an_independent_supply)
{
    // choice (a|b); a's branch reaches t which also holds a self-loop state
    // place.  Allocating b must remove t entirely — the self-loop must not
    // trigger the keep rule b.ii.
    pn::net_builder b("selfloop");
    const auto src = b.add_transition("src");
    const auto pc = b.add_place("pc");
    const auto a = b.add_transition("a");
    const auto alt = b.add_transition("alt");
    const auto pa = b.add_place("pa");
    const auto t = b.add_transition("t");
    const auto state = b.add_place("state", 1);
    b.add_arc(src, pc);
    b.add_arc(pc, a);
    b.add_arc(pc, alt);
    b.add_arc(a, pa);
    b.add_arc(pa, t);
    b.add_arc(state, t);
    b.add_arc(t, state);
    const petri_net net = std::move(b).build();

    const auto clusters = choice_clusters(net);
    const t_allocation choose_alt{{alt}};
    const t_reduction r = reduce(net, clusters, choose_alt);
    EXPECT_FALSE(r.keep_transition[t.index()]);
    EXPECT_FALSE(r.keep_place[pa.index()]);
    EXPECT_FALSE(r.keep_place[state.index()]);
    EXPECT_TRUE(quasi_static_schedule(net).schedulable);
}

TEST(reduction, materialize_validates_dimensions)
{
    const petri_net net = nets::figure_3a();
    t_reduction bogus;
    EXPECT_THROW((void)materialize(net, bogus), model_error);
}

TEST(schedulability, deadlock_detected_in_unmarked_cycle)
{
    // src -> p -> t, where t also needs a cycle place never marked: the
    // reduction is consistent (cycle balances) but simulation deadlocks.
    pn::net_builder b("cycle");
    const auto src = b.add_transition("src");
    const auto p = b.add_place("p");
    const auto t = b.add_transition("t");
    const auto u = b.add_transition("u");
    const auto ring_a = b.add_place("ring_a"); // t -> ring_a -> u
    const auto ring_b = b.add_place("ring_b"); // u -> ring_b -> t, unmarked!
    b.add_arc(src, p);
    b.add_arc(p, t);
    b.add_arc(t, ring_a);
    b.add_arc(ring_a, u);
    b.add_arc(u, ring_b);
    b.add_arc(ring_b, t);
    const petri_net net = std::move(b).build();

    const qss_result result = quasi_static_schedule(net);
    EXPECT_FALSE(result.schedulable);
    ASSERT_EQ(result.entries.size(), 1u);
    EXPECT_EQ(result.entries.front().analysis.failure, reduction_failure::deadlock);
    EXPECT_FALSE(result.entries.front().analysis.offending.empty());
    EXPECT_NE(result.diagnosis.find("deadlock"), std::string::npos);
}

TEST(schedulability, marked_cycle_schedules)
{
    // Same shape but the ring carries a token: schedulable.
    pn::net_builder b("cycle_ok");
    const auto src = b.add_transition("src");
    const auto p = b.add_place("p");
    const auto t = b.add_transition("t");
    const auto u = b.add_transition("u");
    const auto ring_a = b.add_place("ring_a");
    const auto ring_b = b.add_place("ring_b", 1);
    b.add_arc(src, p);
    b.add_arc(p, t);
    b.add_arc(t, ring_a);
    b.add_arc(ring_a, u);
    b.add_arc(u, ring_b);
    b.add_arc(ring_b, t);
    const petri_net net = std::move(b).build();
    const qss_result result = quasi_static_schedule(net);
    EXPECT_TRUE(result.schedulable);
}

TEST(schedulability, cycle_restores_marking_for_every_entry)
{
    for (const petri_net& net :
         {nets::figure_2(), nets::figure_3a(), nets::figure_4(), nets::figure_5()}) {
        const qss_result result = quasi_static_schedule(net);
        ASSERT_TRUE(result.schedulable) << net.name();
        for (const schedule_entry& entry : result.entries) {
            EXPECT_TRUE(pn::is_finite_complete_cycle(net, entry.analysis.cycle))
                << net.name();
            // The cycle realizes exactly its cycle vector.
            EXPECT_EQ(pn::firing_count_vector(net, entry.analysis.cycle),
                      entry.analysis.cycle_vector)
                << net.name();
        }
    }
}

TEST(scheduler, allocation_dedup_merges_moot_choices)
{
    // A choice inside a removed branch is moot: allocations differing only
    // there map to the same reduction.
    pn::net_builder b("nested");
    const auto src = b.add_transition("src");
    const auto pc1 = b.add_place("pc1");
    const auto a = b.add_transition("a");
    const auto c = b.add_transition("c");
    const auto pa = b.add_place("pa");
    const auto pc2 = b.add_place("pc2"); // second choice inside a's branch
    const auto d = b.add_transition("d");
    const auto e = b.add_transition("e");
    b.add_arc(src, pc1);
    b.add_arc(pc1, a);
    b.add_arc(pc1, c);
    b.add_arc(a, pa);
    b.add_arc(pa, b.add_transition("mid"));
    const auto mid = b.build_copy().find_transition("mid");
    b.add_arc(mid, pc2);
    b.add_arc(pc2, d);
    b.add_arc(pc2, e);
    const petri_net net = std::move(b).build();

    const qss_result result = quasi_static_schedule(net);
    ASSERT_TRUE(result.schedulable);
    EXPECT_EQ(result.allocations_enumerated, 4u); // 2 x 2
    EXPECT_EQ(result.entries.size(), 3u);         // {a,d}, {a,e}, {c,*} merged
}

TEST(scheduler, options_cap_allocations)
{
    // The cap bounds the allocation space, whatever pruning would save, and
    // its message is part of the pipeline's diagnosis text.
    scheduler_options options;
    options.max_allocations = 1;
    try {
        (void)quasi_static_schedule(nets::figure_3a(), options);
        ADD_FAILURE() << "expected resource_limit_error";
    } catch (const resource_limit_error& e) {
        EXPECT_STREQ(e.what(), "enumerate_allocations: 2 allocations exceed the "
                               "configured limit of 1");
    }
    options.max_allocations = 2;
    EXPECT_TRUE(quasi_static_schedule(nets::figure_3a(), options).schedulable);
}

TEST(task_partition, independent_sources_get_separate_tasks)
{
    // Two disjoint source->sink chains: two tasks.
    pn::net_builder b("two_inputs");
    const auto s1 = b.add_transition("in1");
    const auto s2 = b.add_transition("in2");
    const auto p1 = b.add_place("p1");
    const auto p2 = b.add_place("p2");
    const auto d1 = b.add_transition("out1");
    const auto d2 = b.add_transition("out2");
    b.add_arc(s1, p1);
    b.add_arc(p1, d1);
    b.add_arc(s2, p2);
    b.add_arc(p2, d2);
    const petri_net net = std::move(b).build();

    const qss_result result = quasi_static_schedule(net);
    ASSERT_TRUE(result.schedulable);
    const task_partition partition = partition_tasks(net, result);
    ASSERT_EQ(partition.tasks.size(), 2u);
    EXPECT_EQ(partition.tasks[0].name, "task_in1");
    EXPECT_EQ(partition.tasks[1].name, "task_in2");
    EXPECT_EQ(partition.tasks[0].members.size(), 2u);
    EXPECT_TRUE(partition.detached.empty());
}

TEST(task_partition, autonomous_net_gets_main_task)
{
    // A sourceless marked-graph ring still yields one runnable task.
    pn::net_builder b("auto");
    const auto p1 = b.add_place("p1", 1);
    const auto p2 = b.add_place("p2");
    const auto a = b.add_transition("a");
    const auto c = b.add_transition("c");
    b.add_arc(p1, a);
    b.add_arc(a, p2);
    b.add_arc(p2, c);
    b.add_arc(c, p1);
    const petri_net net = std::move(b).build();
    const qss_result result = quasi_static_schedule(net);
    ASSERT_TRUE(result.schedulable);
    const task_partition partition = partition_tasks(net, result);
    ASSERT_EQ(partition.tasks.size(), 1u);
    EXPECT_EQ(partition.tasks.front().name, "task_main");
    EXPECT_EQ(partition.tasks.front().members.size(), 2u);
}

TEST(task_partition, requires_schedulable_result)
{
    const petri_net net = nets::figure_3b();
    const qss_result result = quasi_static_schedule(net);
    ASSERT_FALSE(result.schedulable);
    EXPECT_THROW((void)partition_tasks(net, result), domain_error);
}

} // namespace
} // namespace fcqss::qss
