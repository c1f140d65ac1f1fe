// Pins the QSS pipeline to every number the paper publishes: the net classes
// of Fig. 1, the Fig. 2 schedule, the schedulability verdicts and schedules
// of Figs. 3-5 and 7, and the Sec. 4 code-generation structure for Fig. 4.
#include <gtest/gtest.h>

#include <algorithm>

#include "nets/paper_nets.hpp"
#include "pn/invariants.hpp"
#include "pn/net_class.hpp"
#include "pn/structure.hpp"
#include "qss/reduction.hpp"
#include "qss/scheduler.hpp"
#include "qss/task_partition.hpp"
#include "qss/valid_schedule.hpp"
#include "sdf/sdf_graph.hpp"
#include "sdf/static_schedule.hpp"

namespace fcqss {
namespace {

using pn::firing_sequence;
using pn::petri_net;
using pn::transition_id;

firing_sequence sequence_of(const petri_net& net, const std::vector<std::string>& names)
{
    firing_sequence seq;
    for (const std::string& name : names) {
        const transition_id t = net.find_transition(name);
        EXPECT_TRUE(t.valid()) << "unknown transition " << name;
        seq.push_back(t);
    }
    return seq;
}

bool contains_cycle(const qss::qss_result& result, const petri_net& net,
                    const std::vector<std::string>& names)
{
    const firing_sequence expected = sequence_of(net, names);
    const auto cycles = result.cycles();
    return std::find(cycles.begin(), cycles.end(), expected) != cycles.end();
}

TEST(figure1, free_choice_classification)
{
    EXPECT_TRUE(pn::is_free_choice(nets::figure_1a()));
    EXPECT_FALSE(pn::is_free_choice(nets::figure_1b()));
    EXPECT_NE(pn::describe_free_choice_violation(nets::figure_1b()), "");
}

TEST(figure2, repetition_vector_and_schedule)
{
    const petri_net net = nets::figure_2();
    ASSERT_TRUE(pn::is_marked_graph(net));

    const sdf::sdf_graph graph = sdf::from_marked_graph(net);
    const sdf::static_schedule schedule = sdf::compute_static_schedule(graph);
    ASSERT_TRUE(schedule.ok());
    // f(sigma) = (4, 2, 1)^T as printed under the figure.
    EXPECT_EQ(schedule.repetitions.counts, (std::vector<std::int64_t>{4, 2, 1}));
    // The printed schedule: sigma = t1 t1 t1 t1 t2 t2 t3.
    EXPECT_EQ(to_string(graph, schedule), "t1 t1 t1 t1 t2 t2 t3");
}

TEST(figure2, qss_handles_marked_graphs_too)
{
    const petri_net net = nets::figure_2();
    const qss::qss_result result = qss::quasi_static_schedule(net);
    ASSERT_TRUE(result.schedulable);
    ASSERT_EQ(result.entries.size(), 1u); // no choices -> single reduction
    // QSS admits a new input only when the running reaction has quiesced, so
    // its serialization differs from the SDF section's eager order — but the
    // cycle realizes the same T-invariant (4, 2, 1) and restores the marking.
    const firing_sequence& cycle = result.entries.front().analysis.cycle;
    EXPECT_EQ(result.entries.front().analysis.cycle_vector,
              (linalg::int_vector{4, 2, 1}));
    EXPECT_EQ(pn::to_string(net, cycle), "t1 t1 t2 t1 t1 t2 t3");
    EXPECT_TRUE(pn::is_finite_complete_cycle(net, cycle));
}

TEST(figure3a, schedulable_with_published_schedule)
{
    const petri_net net = nets::figure_3a();
    const qss::qss_result result = qss::quasi_static_schedule(net);
    ASSERT_TRUE(result.schedulable);
    ASSERT_EQ(result.entries.size(), 2u);
    EXPECT_TRUE(contains_cycle(result, net, {"t1", "t2", "t4"}));
    EXPECT_TRUE(contains_cycle(result, net, {"t1", "t3", "t5"}));
    EXPECT_EQ(qss::check_valid_schedule(net, result.cycles()), std::nullopt);
}

TEST(figure3a, invariant_space_matches)
{
    // f(s) = a(1,1,0,1,0) + b(1,0,1,0,1).
    const auto invariants = pn::t_invariants(nets::figure_3a());
    ASSERT_EQ(invariants.size(), 2u);
    EXPECT_TRUE(std::find(invariants.begin(), invariants.end(),
                          linalg::int_vector{1, 1, 0, 1, 0}) != invariants.end());
    EXPECT_TRUE(std::find(invariants.begin(), invariants.end(),
                          linalg::int_vector{1, 0, 1, 0, 1}) != invariants.end());
}

TEST(figure3b, not_schedulable_join_after_choice)
{
    const petri_net net = nets::figure_3b();

    // Only the balanced vector (2,1,1,1) solves the state equations.
    const auto invariants = pn::t_invariants(net);
    ASSERT_EQ(invariants.size(), 1u);
    EXPECT_EQ(invariants.front(), (linalg::int_vector{2, 1, 1, 1}));

    const qss::qss_result result = qss::quasi_static_schedule(net);
    EXPECT_FALSE(result.schedulable);
    EXPECT_NE(result.diagnosis.find("inconsistent"), std::string::npos);
}

TEST(figure4, schedulable_with_published_schedule)
{
    const petri_net net = nets::figure_4();
    const qss::qss_result result = qss::quasi_static_schedule(net);
    ASSERT_TRUE(result.schedulable);
    ASSERT_EQ(result.entries.size(), 2u);
    // S = {(t1 t2 t1 t2 t4), (t1 t3 t5 t5)} — note the interleaved t1 t2
    // pairs in the first cycle: the choice is resolved as soon as a token
    // reaches p1, exactly as printed.
    EXPECT_TRUE(contains_cycle(result, net, {"t1", "t2", "t1", "t2", "t4"}));
    EXPECT_TRUE(contains_cycle(result, net, {"t1", "t3", "t5", "t5"}));
    EXPECT_EQ(qss::check_valid_schedule(net, result.cycles()), std::nullopt);
}

TEST(figure5, reductions_match_published_subnets)
{
    const petri_net net = nets::figure_5();
    const auto clusters = qss::choice_clusters(net);
    ASSERT_EQ(clusters.size(), 1u);
    ASSERT_EQ(clusters.front().alternatives.size(), 2u);

    // Allocation A1 chooses t2; R1 = {t1,t2,t4,t6,t8,t9} x {p1,p2,p4,p7}.
    qss::t_allocation a1{{net.find_transition("t2")}};
    const qss::t_reduction r1 = qss::reduce(net, clusters, a1, /*record_trace=*/true);
    const auto kept_transition = [&](const qss::t_reduction& r, const std::string& name) {
        return r.keep_transition[net.find_transition(name).index()];
    };
    const auto kept_place = [&](const qss::t_reduction& r, const std::string& name) {
        return r.keep_place[net.find_place(name).index()];
    };
    for (const char* name : {"t1", "t2", "t4", "t6", "t8", "t9"}) {
        EXPECT_TRUE(kept_transition(r1, name)) << name;
    }
    for (const char* name : {"t3", "t5", "t7"}) {
        EXPECT_FALSE(kept_transition(r1, name)) << name;
    }
    for (const char* name : {"p1", "p2", "p4", "p7"}) {
        EXPECT_TRUE(kept_place(r1, name)) << name;
    }
    for (const char* name : {"p3", "p5", "p6"}) {
        EXPECT_FALSE(kept_place(r1, name)) << name;
    }

    // Fig. 6's removal order: t3 (unallocated), p3, t5, p5+p6, t7.
    std::vector<std::string> removed;
    for (const qss::reduction_step& step : r1.trace) {
        removed.push_back(step.node);
    }
    EXPECT_EQ(removed, (std::vector<std::string>{"t3", "p3", "t5", "p5", "p6", "t7"}));

    // Allocation A2 chooses t3; R2 keeps p4 because t9 still feeds it.
    qss::t_allocation a2{{net.find_transition("t3")}};
    const qss::t_reduction r2 = qss::reduce(net, clusters, a2);
    for (const char* name : {"t1", "t3", "t5", "t6", "t7", "t8", "t9"}) {
        EXPECT_TRUE(kept_transition(r2, name)) << name;
    }
    EXPECT_FALSE(kept_transition(r2, "t2"));
    EXPECT_FALSE(kept_transition(r2, "t4"));
    EXPECT_TRUE(kept_place(r2, "p4"));
    EXPECT_FALSE(kept_place(r2, "p2"));
}

TEST(figure5, published_invariants_and_cycles)
{
    const petri_net net = nets::figure_5();
    const qss::qss_result result = qss::quasi_static_schedule(net);
    ASSERT_TRUE(result.schedulable);
    ASSERT_EQ(result.entries.size(), 2u);

    // "the T-invariants of R1 are (1,1,0,2,0,4,0,0,0) and (0,0,0,0,0,1,0,1,1)".
    const qss::schedule_entry* r1_entry = nullptr;
    for (const qss::schedule_entry& entry : result.entries) {
        if (entry.reduction.keep_transition[net.find_transition("t2").index()]) {
            r1_entry = &entry;
        }
    }
    ASSERT_NE(r1_entry, nullptr);
    ASSERT_EQ(r1_entry->analysis.invariants.size(), 2u);
    EXPECT_TRUE(std::find(r1_entry->analysis.invariants.begin(),
                          r1_entry->analysis.invariants.end(),
                          linalg::int_vector{1, 1, 0, 2, 0, 4, 0, 0, 0}) !=
                r1_entry->analysis.invariants.end());
    EXPECT_TRUE(std::find(r1_entry->analysis.invariants.begin(),
                          r1_entry->analysis.invariants.end(),
                          linalg::int_vector{0, 0, 0, 0, 0, 1, 0, 1, 1}) !=
                r1_entry->analysis.invariants.end());

    // "a valid set of finite complete cycles for this PN is
    //  {(t1 t2 t4 t4 t6 t6 t6 t6 t8 t9 t6), (t1 t3 t5 t7 t7 t8 t9 t6)}".
    EXPECT_TRUE(contains_cycle(result, net,
                               {"t1", "t2", "t4", "t4", "t6", "t6", "t6", "t6", "t8",
                                "t9", "t6"}));
    EXPECT_TRUE(contains_cycle(result, net,
                               {"t1", "t3", "t5", "t7", "t7", "t8", "t9", "t6"}));
    EXPECT_EQ(qss::check_valid_schedule(net, result.cycles()), std::nullopt);
}

TEST(figure5, single_task_shared_tail)
{
    // t6 is rate-dependent on both t1 and t8 (it appears in invariants with
    // each), so the whole net folds into one task with two inputs.
    const petri_net net = nets::figure_5();
    const qss::qss_result result = qss::quasi_static_schedule(net);
    ASSERT_TRUE(result.schedulable);
    const qss::task_partition partition = qss::partition_tasks(net, result);
    ASSERT_EQ(partition.tasks.size(), 1u);
    EXPECT_EQ(partition.tasks.front().sources.size(), 2u);
}

TEST(figure7, both_reductions_inconsistent)
{
    const petri_net net = nets::figure_7();
    const qss::qss_result result = qss::quasi_static_schedule(net);
    EXPECT_FALSE(result.schedulable);
    ASSERT_EQ(result.entries.size(), 2u);
    for (const qss::schedule_entry& entry : result.entries) {
        EXPECT_FALSE(entry.analysis.ok());
        EXPECT_TRUE(entry.analysis.failure == qss::reduction_failure::inconsistent ||
                    entry.analysis.failure == qss::reduction_failure::source_uncovered);
    }

    // R1 keeps the producerless place p5 (the starved join input).
    const auto clusters = qss::choice_clusters(net);
    qss::t_allocation a1{{net.find_transition("t2")}};
    const qss::t_reduction r1 = qss::reduce(net, clusters, a1);
    EXPECT_TRUE(r1.keep_place[net.find_place("p5").index()]);
    EXPECT_FALSE(r1.keep_place[net.find_place("p6").index()]);
    EXPECT_TRUE(r1.keep_transition[net.find_transition("t6").index()]);
    EXPECT_FALSE(r1.keep_transition[net.find_transition("t7").index()]);
}

TEST(figure3a, task_partition_single_input)
{
    const petri_net net = nets::figure_3a();
    const qss::qss_result result = qss::quasi_static_schedule(net);
    ASSERT_TRUE(result.schedulable);
    const qss::task_partition partition = qss::partition_tasks(net, result);
    ASSERT_EQ(partition.tasks.size(), 1u);
    EXPECT_EQ(partition.tasks.front().sources,
              (std::vector<transition_id>{net.find_transition("t1")}));
    EXPECT_EQ(partition.tasks.front().members.size(), 5u);
}

} // namespace
} // namespace fcqss
