// Tests for SDF looped-schedule compression and single-appearance
// schedules.
#include <gtest/gtest.h>

#include "base/error.hpp"
#include "nets/paper_nets.hpp"
#include "sdf/buffer_bounds.hpp"
#include "sdf/looped_schedule.hpp"
#include "sdf/sdf_graph.hpp"
#include "sdf/static_schedule.hpp"

namespace fcqss {
namespace {

TEST(looped, compress_figure_2_schedule)
{
    const auto graph = sdf::from_marked_graph(nets::figure_2());
    const auto flat = sdf::compute_static_schedule(graph);
    ASSERT_TRUE(flat.ok());
    const auto looped = sdf::compress(flat.firing_order);
    // t1 t1 t1 t1 t2 t2 t3 -> (4 t1) (2 t2) t3: single appearance.
    EXPECT_EQ(to_string(graph, looped), "(4 t1) (2 t2) t3");
    EXPECT_EQ(looped.appearance_count(), 3u);
    EXPECT_EQ(sdf::flatten(looped), flat.firing_order);
}

TEST(looped, compress_periodic_block)
{
    // a b a b a b -> (3 a b).
    const std::vector<sdf::actor_id> flat{0, 1, 0, 1, 0, 1};
    const auto looped = sdf::compress(flat);
    EXPECT_EQ(sdf::flatten(looped), flat);
    EXPECT_EQ(looped.appearance_count(), 2u);
    ASSERT_EQ(looped.nodes.size(), 1u);
    EXPECT_EQ(looped.nodes.front().count, 3);
}

TEST(looped, roundtrip_property)
{
    // Random firing orders always survive compress/flatten.
    std::uint64_t state = 42;
    const auto rnd = [&state](std::uint64_t bound) {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return (state * 0x2545f4914f6cdd1dULL) % bound;
    };
    for (int round = 0; round < 40; ++round) {
        std::vector<sdf::actor_id> flat;
        const std::size_t length = 1 + rnd(24);
        for (std::size_t i = 0; i < length; ++i) {
            flat.push_back(rnd(3));
        }
        const auto looped = sdf::compress(flat);
        EXPECT_EQ(sdf::flatten(looped), flat) << "round " << round;
    }
}

TEST(looped, single_appearance_for_chain)
{
    const auto graph = sdf::from_marked_graph(nets::figure_2());
    const auto sas = sdf::single_appearance_schedule(graph);
    ASSERT_FALSE(sas.nodes.empty());
    EXPECT_EQ(to_string(graph, sas), "(4 t1) (2 t2) t3");
    EXPECT_TRUE(sdf::is_admissible(graph, sas));
    EXPECT_EQ(sas.appearance_count(), graph.actor_count());
}

TEST(looped, sas_vs_flat_buffer_tradeoff)
{
    // up(1->3) then down(2->1): interleaving reduces the middle buffer
    // compared to the single-appearance batch.
    sdf::sdf_graph graph("updown");
    const auto up = graph.add_actor("up");
    const auto down = graph.add_actor("down");
    graph.add_channel(up, down, 3, 2);

    const auto flat = sdf::compute_static_schedule(graph);
    ASSERT_TRUE(flat.ok());
    const auto flat_bounds = sdf::buffer_bounds(graph, flat);

    const auto sas = sdf::single_appearance_schedule(graph);
    ASSERT_FALSE(sas.nodes.empty());
    const auto sas_bounds = sdf::looped_buffer_bounds(graph, sas);

    EXPECT_LE(sas.appearance_count(), 2u);
    EXPECT_GE(sas_bounds[0], flat_bounds[0]); // code-min schedule buffers more
    EXPECT_EQ(sas_bounds[0], 6);              // (2 up) fills 6 before down runs
}

TEST(looped, sas_uses_delays_to_break_cycles)
{
    // a -> b -> a with enough delay on the back edge for one full period.
    sdf::sdf_graph graph("cycle");
    const auto a = graph.add_actor("a");
    const auto b = graph.add_actor("b");
    graph.add_channel(a, b, 1, 1);
    graph.add_channel(b, a, 1, 1, 1);
    const auto sas = sdf::single_appearance_schedule(graph);
    ASSERT_FALSE(sas.nodes.empty());
    EXPECT_TRUE(sdf::is_admissible(graph, sas));

    // Without the delay there is no single-appearance order.
    sdf::sdf_graph stuck("stuck");
    const auto c = stuck.add_actor("a");
    const auto d = stuck.add_actor("b");
    stuck.add_channel(c, d, 1, 1);
    stuck.add_channel(d, c, 1, 1, 0);
    EXPECT_TRUE(sdf::single_appearance_schedule(stuck).nodes.empty());
}

TEST(looped, admissibility_rejects_underflow)
{
    sdf::sdf_graph graph("pair");
    const auto a = graph.add_actor("a");
    const auto b = graph.add_actor("b");
    graph.add_channel(a, b, 1, 1);
    sdf::looped_schedule wrong;
    sdf::schedule_node node;
    node.actor = b; // consumes before anything was produced
    wrong.nodes.push_back(node);
    EXPECT_FALSE(sdf::is_admissible(graph, wrong));
    EXPECT_THROW((void)sdf::looped_buffer_bounds(graph, wrong), domain_error);
}

} // namespace
} // namespace fcqss
