// The differential liveness test net for the ltl_x stubborn-set reduction
// (pn/stubborn.hpp): randomized sweeps over every generator family x defect
// x token load x source credit assert that check_live / boundedness
// verdicts decided on the ltl_x-reduced graph equal the unreduced engine's
// exactly, at threads 1/2/4 and under tight truncating budgets, and that
// the reduced spaces themselves stay bit-identical across thread counts
// (the ignoring fix-up is a deterministic sequential post-pass).  The file
// also carries the ignoring-regression fixture — a cycle of choices that a
// deadlock reduction starves forever, flipping the liveness verdict — the
// fix-up's pinned work (rounds, re-expansions) on a net where it
// re-expands, and the from-scratch proviso property test: in every
// cycle-capable SCC of an ltl_x-reduced graph, each transition enabled
// somewhere in the SCC is fired somewhere in it.  Runs under the TSan CI
// job.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/scc.hpp"
#include "obs/obs.hpp"
#include "pipeline/net_generator.hpp"
#include "pn/builder.hpp"
#include "pn/parallel_explore.hpp"
#include "pn/properties.hpp"
#include "pn/reachability.hpp"
#include "pn/state_space.hpp"
#include "pn/stubborn.hpp"
#include "test_util.hpp"

namespace fcqss::pn {
namespace {

constexpr std::size_t thread_counts[] = {1, 2, 4};

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

/// Bit-identical comparison: same ids, same decoded tokens, same CSR rows,
/// same truncation verdict (as in test_stubborn.cpp).
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

/// The bottom-SCC liveness analysis of properties.cpp, applied to a
/// prebuilt graph — lets the tests evaluate what check_live *would* say on
/// a given (possibly unsoundly reduced) space.
verdict live_verdict_on(const petri_net& net, const state_space& space)
{
    if (space.truncated()) {
        return verdict::unknown;
    }
    if (space.state_count() == 0 || net.transition_count() == 0) {
        return verdict::no;
    }
    graph::digraph state_graph(space.state_count());
    for (state_id v = 0; v < static_cast<state_id>(space.state_count()); ++v) {
        for (const state_space_edge& edge : space.successors(v)) {
            state_graph.add_edge(v, edge.to);
        }
    }
    const graph::scc_result sccs = graph::strongly_connected_components(state_graph);
    std::vector<bool> is_bottom(sccs.component_count(), true);
    for (state_id v = 0; v < static_cast<state_id>(space.state_count()); ++v) {
        for (const state_space_edge& edge : space.successors(v)) {
            if (sccs.component[v] != sccs.component[edge.to]) {
                is_bottom[sccs.component[v]] = false;
            }
        }
    }
    for (std::size_t c = 0; c < sccs.component_count(); ++c) {
        if (!is_bottom[c]) {
            continue;
        }
        std::vector<bool> fires(net.transition_count(), false);
        for (const std::size_t v : sccs.members[c]) {
            for (const state_space_edge& edge :
                 space.successors(static_cast<state_id>(v))) {
                if (sccs.component[edge.to] == c) {
                    fires[edge.via.index()] = true;
                }
            }
        }
        for (const bool fired : fires) {
            if (!fired) {
                return verdict::no;
            }
        }
    }
    return verdict::yes;
}

/// The satellite proviso, checked from scratch against the CSR edges: in
/// every SCC that can sustain a cycle, each transition enabled somewhere in
/// the SCC is fired somewhere in it.
void expect_proviso_holds(const petri_net& net, const state_space& space)
{
    ASSERT_FALSE(space.truncated()) << "proviso is only enforced on complete graphs";
    graph::digraph state_graph(space.state_count());
    for (state_id v = 0; v < static_cast<state_id>(space.state_count()); ++v) {
        for (const state_space_edge& edge : space.successors(v)) {
            state_graph.add_edge(v, edge.to);
        }
    }
    const graph::scc_result sccs = graph::strongly_connected_components(state_graph);
    for (std::size_t c = 0; c < sccs.component_count(); ++c) {
        const std::vector<std::size_t>& members = sccs.members[c];
        bool cyclic = members.size() > 1;
        if (!cyclic) {
            for (const state_space_edge& edge :
                 space.successors(static_cast<state_id>(members.front()))) {
                cyclic |= static_cast<std::size_t>(edge.to) == members.front();
            }
        }
        if (!cyclic) {
            continue;
        }
        std::vector<bool> fired(net.transition_count(), false);
        for (const std::size_t v : members) {
            for (const state_space_edge& edge :
                 space.successors(static_cast<state_id>(v))) {
                fired[edge.via.index()] = true;
            }
        }
        for (const std::size_t v : members) {
            for (const transition_id t :
                 scan_enabled(net, space.tokens(static_cast<state_id>(v)).data())) {
                EXPECT_TRUE(fired[t.index()])
                    << "transition " << net.transition_name(t)
                    << " is enabled in SCC " << c << " (state " << v
                    << ") but never fired in it";
            }
        }
    }
}

// -- The ignoring-regression fixture ----------------------------------------

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

TEST(ltlx_stubborn, deadlock_reduction_starves_the_choice_cycle)
{
    const petri_net net = cycle_of_choices();
    const state_space full = explore_state_space(net, {});
    ASSERT_FALSE(full.truncated());
    EXPECT_EQ(full.state_count(), 6u);
    EXPECT_EQ(live_verdict_on(net, full), verdict::yes);

    // Deadlock reduction: the a-cycle is expanded alone forever.  The graph
    // is deadlock-correct (no deadlock to find) but liveness-wrong.
    const state_space starved =
        explore_state_space(net, {.reduction = reduction_kind::deadlock});
    ASSERT_FALSE(starved.truncated());
    EXPECT_EQ(starved.state_count(), 2u);
    std::vector<bool> fired(net.transition_count(), false);
    for (state_id s = 0; s < static_cast<state_id>(starved.state_count()); ++s) {
        for (const state_space_edge& edge : starved.successors(s)) {
            fired[edge.via.index()] = true;
        }
    }
    EXPECT_EQ(std::count(fired.begin(), fired.end(), true), 2)
        << "only the a-cycle should ever fire under the deadlock reduction";
    EXPECT_EQ(live_verdict_on(net, starved), verdict::no)
        << "the starved graph must misreport liveness — the very bug "
           "ltl_x reduction exists to fix";
}

TEST(ltlx_stubborn, ltlx_reduction_flips_the_verdict_to_the_correct_one)
{
    const petri_net net = cycle_of_choices();
    const state_space reduced =
        explore_state_space(net, {.reduction = reduction_kind::ltl_x});
    ASSERT_FALSE(reduced.truncated());
    expect_proviso_holds(net, reduced);
    EXPECT_EQ(live_verdict_on(net, reduced), verdict::yes);

    // And through the public query, at every thread count.
    EXPECT_EQ(check_live(net), verdict::yes);
    for (const std::size_t threads : thread_counts) {
        reachability_options options;
        options.threads = threads;
        options.reduction = reduction_kind::deadlock;
        EXPECT_EQ(check_live(net, options), verdict::yes)
            << "threads " << threads;
    }
}

/// Two independent one-shot chains, p0 -t0-> p1 and q0 -u0-> q1 (as in
/// test_stubborn.cpp): 4 reachable states, which the deadlock reduction
/// serializes into 3.
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

TEST(ltlx_stubborn, fixup_is_a_no_op_on_acyclic_graphs)
{
    // Since the graph is acyclic nothing can be ignored forever — ltl_x
    // must keep the reduction untouched rather than degrade to full
    // expansion.
    const petri_net net = independent_chains();
    const state_space deadlock_reduced =
        explore_state_space(net, {.reduction = reduction_kind::deadlock});
    const state_space ltlx_reduced =
        explore_state_space(net, {.reduction = reduction_kind::ltl_x});
    EXPECT_EQ(deadlock_reduced.state_count(), 3u);
    expect_identical_spaces(deadlock_reduced, ltlx_reduced);
}

// -- The fix-up's work on a net where it re-expands --------------------------

TEST(ltlx_stubborn, fixup_work_is_pinned_where_it_re_expands)
{
    // Three toggles beside a four-place fuse ending in a weight-1 jump
    // (12 places, 11 transitions).  The deadlock reduction expands one
    // toggle cycle forever and ignores the fuse, so the fix-up must
    // re-expand its way down the fuse: 9 rounds and 24 re-expansions reach
    // all 48 states with 116 of the full graph's 184 edges.  Every engine
    // and thread count does the same work and builds the same space.
    const petri_net net =
        testutil::counter_net("fuse_beside_toggles", 0, 0, 3, 4, 0, 1);
    ASSERT_EQ(net.place_count(), 12u);
    ASSERT_EQ(net.transition_count(), 11u);
    const reachability_options options{.max_markings = 4000,
                                       .max_tokens_per_place = 64,
                                       .reduction = reduction_kind::ltl_x};
    struct fixup_run {
        state_space space;
        std::uint64_t rounds = 0;
        std::uint64_t reexpansions = 0;
    };
    const auto observe = [](auto&& explore) {
        obs::reset();
        obs::set_stats_enabled(true);
        fixup_run run{explore()};
        obs::set_stats_enabled(false);
        run.rounds = obs::get_counter("pn.ltlx.rounds").value();
        run.reexpansions = obs::get_counter("pn.ltlx.reexpansions").value();
        return run;
    };

    const fixup_run sequential =
        observe([&] { return explore_state_space(net, options); });
    EXPECT_FALSE(sequential.space.truncated());
    EXPECT_EQ(sequential.space.state_count(), 48u);
    EXPECT_EQ(sequential.space.edge_count(), 116u);
    EXPECT_EQ(sequential.rounds, 9u);
    EXPECT_EQ(sequential.reexpansions, 24u);
    expect_proviso_holds(net, sequential.space);
    for (const std::size_t threads : thread_counts) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        reachability_options parallel_options = options;
        parallel_options.threads = threads;
        const fixup_run parallel =
            observe([&] { return explore_parallel(net, parallel_options); });
        EXPECT_EQ(parallel.rounds, 9u);
        EXPECT_EQ(parallel.reexpansions, 24u);
        expect_identical_spaces(sequential.space, parallel.space);
    }
}

// -- Visibility (conditions V and I) ----------------------------------------

TEST(ltlx_stubborn, invisible_seeds_are_preferred_and_visible_sets_merge)
{
    const petri_net net = independent_chains();
    const place_id p1 = net.find_place("p1");
    const place_id q1 = net.find_place("q1");
    const std::vector<std::int64_t>& m0 = net.initial_marking_vector();
    const std::vector<transition_id> enabled = scan_enabled(net, m0.data());
    ASSERT_EQ(enabled.size(), 2u);
    stubborn_workspace ws;
    std::vector<transition_id> out;

    // Observing p1 makes t0 visible and u0 invisible: condition I restricts
    // the seeds to u0, so the reduction defers the visible firing.
    const std::vector<place_id> observe_p1{p1};
    const stubborn_reduction observe_one(net, observe_p1);
    EXPECT_TRUE(observe_one.visible(enabled[0]));  // t0
    EXPECT_FALSE(observe_one.visible(enabled[1])); // u0
    observe_one.reduce(m0.data(), enabled, ws, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out.front(), enabled[1]);

    // Observing both chains makes both transitions visible: condition V
    // pulls every visible transition into any candidate set, so nothing can
    // be deferred and the state is fully expanded.
    const std::vector<place_id> observe_p1_q1{p1, q1};
    const stubborn_reduction observe_both(net, observe_p1_q1);
    observe_both.reduce(m0.data(), enabled, ws, out);
    EXPECT_EQ(out, enabled);
}

TEST(ltlx_stubborn, deadlock_reduction_ignores_observed_places)
{
    // Observed places count only under ltl_x: the deadlock reduction with
    // both chains observed explores exactly what it explores without them,
    // on both engines, while ltl_x with the same set expands the root fully.
    const petri_net net = independent_chains();
    const std::vector<place_id> observed{net.find_place("p1"), net.find_place("q1")};
    const state_space plain =
        explore_state_space(net, {.reduction = reduction_kind::deadlock});
    EXPECT_EQ(plain.state_count(), 3u);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const reachability_options options{.threads = threads,
                                           .reduction = reduction_kind::deadlock,
                                           .observed_places = observed};
        expect_identical_spaces(plain, explore_space(net, options));
    }
    EXPECT_EQ(explore_state_space(
                  net, {.reduction = reduction_kind::ltl_x, .observed_places = observed})
                  .state_count(),
              4u);
}

// -- Randomized differential sweeps ----------------------------------------

/// One net's worth of the differential: liveness and explicit boundedness
/// verdicts on the ltl_x-reduced graph must equal the unreduced engine's at
/// every thread count, and the reduced spaces themselves must be
/// bit-identical across threads.
void expect_ltlx_verdicts_match(const petri_net& net)
{
    reachability_options full;
    full.max_markings = 300000;
    const verdict live_full = check_live(net, full);
    ASSERT_NE(live_full, verdict::unknown) << "test net too large: grow the budget";

    reachability_options reduced = full;
    reduced.reduction = reduction_kind::deadlock;
    for (const std::size_t threads : thread_counts) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        reduced.threads = threads;
        EXPECT_EQ(check_live(net, reduced), live_full);
        for (const std::int64_t k : {std::int64_t{1}, std::int64_t{4}}) {
            full.threads = threads;
            EXPECT_EQ(check_k_bounded_explicit(net, k, reduced),
                      check_k_bounded_explicit(net, k, full))
                << "k " << k;
        }
        full.threads = 1;
    }

    const state_space sequential = explore_state_space(
        net, {.max_markings = full.max_markings, .reduction = reduction_kind::ltl_x});
    EXPECT_LE(sequential.state_count(), 300000u);
    for (const std::size_t threads : thread_counts) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const state_space parallel = explore_parallel(
            net, {.max_markings = full.max_markings,
                  .threads = threads,
                  .reduction = reduction_kind::ltl_x});
        expect_identical_spaces(sequential, parallel);
    }
}

TEST(ltlx_stubborn, liveness_differential_all_families)
{
    for (const pipeline::net_family family :
         {pipeline::net_family::marked_graph, pipeline::net_family::free_choice,
          pipeline::net_family::choice_heavy}) {
        for (const int defect_percent : {0, 50}) {
            for (const int token_load : {0, 2}) {
                for (const int credit : {1, 2}) {
                    pipeline::generator_options options;
                    options.family = family;
                    options.sources = 2;
                    options.depth = 3;
                    options.token_load = token_load;
                    options.defect_percent = defect_percent;
                    options.source_credit = credit;
                    pipeline::net_generator generator(17, options);
                    const petri_net net = generator.next();
                    SCOPED_TRACE(std::string("family ") +
                                 pipeline::to_string(family) + " defects " +
                                 std::to_string(defect_percent) + " tokens " +
                                 std::to_string(token_load) + " credit " +
                                 std::to_string(credit));
                    expect_ltlx_verdicts_match(net);
                }
            }
        }
    }
}

TEST(ltlx_stubborn, verdicts_under_tight_budgets)
{
    pipeline::generator_options options;
    options.family = pipeline::net_family::free_choice;
    options.sources = 2;
    options.depth = 4;
    options.token_load = 2;
    options.source_credit = 2;
    pipeline::net_generator generator(23, options);
    const petri_net net = generator.next();

    reachability_options big;
    big.max_markings = 300000;
    const verdict truth = check_live(net, big);
    ASSERT_NE(truth, verdict::unknown);

    for (const std::size_t max_markings :
         {std::size_t{1}, std::size_t{25}, std::size_t{400}, std::size_t{20000}}) {
        SCOPED_TRACE("max_markings " + std::to_string(max_markings));
        reachability_options tight;
        tight.max_markings = max_markings;
        const verdict full_tight = check_live(net, tight);
        for (const std::size_t threads : thread_counts) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            reachability_options reduced = tight;
            reduced.threads = threads;
            reduced.reduction = reduction_kind::deadlock;
            const verdict red_tight = check_live(net, reduced);
            if (red_tight == verdict::unknown) {
                // A truncated reduced run explores a subset of the reachable
                // markings, so the unreduced run must have truncated too.
                EXPECT_EQ(full_tight, verdict::unknown);
            } else {
                // A complete reduced run is definite — and must agree with
                // the ground truth even where the same-budget unreduced run
                // already gave up.
                EXPECT_EQ(red_tight, truth);
            }
        }
    }

    // Bit-identity across thread counts survives budgets that truncate the
    // exploration mid-fixup.
    for (const std::size_t max_states : {std::size_t{7}, std::size_t{120}}) {
        SCOPED_TRACE("max_states " + std::to_string(max_states));
        const state_space sequential = explore_state_space(
            net, {.max_markings = max_states, .max_tokens_per_place = 64,
                  .reduction = reduction_kind::ltl_x});
        for (const std::size_t threads : thread_counts) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            const state_space parallel = explore_parallel(
                net, {.max_markings = max_states,
                      .max_tokens_per_place = 64,
                      .threads = threads,
                      .reduction = reduction_kind::ltl_x});
            expect_identical_spaces(sequential, parallel);
        }
    }
}

// -- The proviso itself, from scratch on random nets ------------------------

TEST(ltlx_stubborn, proviso_holds_in_every_cyclic_scc)
{
    expect_proviso_holds(cycle_of_choices(),
                         explore_state_space(cycle_of_choices(),
                                             {.reduction = reduction_kind::ltl_x}));

    for (const pipeline::net_family family :
         {pipeline::net_family::marked_graph, pipeline::net_family::free_choice,
          pipeline::net_family::choice_heavy}) {
        for (const int credit : {1, 2}) {
            pipeline::generator_options options;
            options.family = family;
            options.sources = 2;
            options.depth = 3;
            options.token_load = 2;
            options.defect_percent = 30;
            options.source_credit = credit;
            pipeline::net_generator generator(91, options);
            for (int i = 0; i < 3; ++i) {
                const petri_net net = generator.next();
                SCOPED_TRACE(std::string("family ") + pipeline::to_string(family) +
                             " credit " + std::to_string(credit) + " net " +
                             std::to_string(i));
                const state_space reduced = explore_state_space(
                    net, {.max_markings = 300000, .reduction = reduction_kind::ltl_x});
                expect_proviso_holds(net, reduced);
            }
        }
    }
}

// The boundedness-visibility regression: check_k_bounded_explicit observes
// only the growable places.  Observing every place makes every token-moving
// transition visible and degenerates the ltl_x reduction to (nearly) the
// full graph; growable-only visibility must genuinely prune while the
// verdict stays exact at every k.
/// The boundedness-visibility fixture: `lanes` independent countdown lanes,
/// each a fuel place holding `fuel` tokens drained one token at a time by a
/// pure-consumer transition.  No place ever grows, so growable_places() is
/// empty and every drain is invisible to the boundedness query — the drains
/// commute and an ltl_x reduction may serialize them into a near-linear
/// graph.  Observing every place instead (the pre-fix behaviour) gives each
/// drain a non-zero delta on an observed place, condition V pulls all of
/// them into every stubborn set, and the full (fuel+1)^lanes interleaving
/// product comes back.
petri_net countdown_lanes(std::size_t lanes, std::int64_t fuel)
{
    net_builder b("countdown_lanes");
    for (std::size_t i = 0; i < lanes; ++i) {
        const auto f = b.add_place("fuel" + std::to_string(i), fuel);
        const auto d = b.add_transition("drain" + std::to_string(i));
        b.add_arc(f, d);
    }
    return std::move(b).build();
}

// The boundedness-visibility regression: check_k_bounded_explicit observes
// only the growable places.  Observing every place makes every token-moving
// transition visible and degenerates the ltl_x reduction to the full
// interleaving product; growable-only visibility must genuinely prune while
// the verdict stays exact at every k.
TEST(ltlx_stubborn, boundedness_visibility_keeps_the_reduction_effective)
{
    const petri_net net = countdown_lanes(3, 4);
    EXPECT_TRUE(growable_places(net).empty());

    reachability_options full;
    full.max_markings = 300000;
    const state_space unreduced = explore_space(net, full);
    ASSERT_FALSE(unreduced.truncated());
    EXPECT_EQ(unreduced.state_count(), 125u); // (4+1)^3 interleavings

    // The exploration the fixed query runs: ltl_x with growable visibility.
    reachability_options reduced = full;
    reduced.reduction = reduction_kind::ltl_x;
    reduced.observed_places = growable_places(net);
    const state_space pruned = explore_space(net, reduced);
    ASSERT_FALSE(pruned.truncated());

    // The pre-fix exploration: every place observed.
    reduced.observed_places.assign(net.places().begin(), net.places().end());
    const state_space degenerate = explore_space(net, reduced);
    ASSERT_FALSE(degenerate.truncated());
    EXPECT_EQ(degenerate.state_count(), unreduced.state_count());

    // Ratio assertion: growable-only visibility explores at most half of
    // what the degenerate visibility visits (in practice near-linear,
    // 13 vs 125 states here).
    EXPECT_LE(pruned.state_count() * 2, degenerate.state_count())
        << "reduction is degenerate: " << pruned.state_count() << " vs "
        << degenerate.state_count() << " states";

    // And the verdict stays exact against the unreduced engine: the lanes
    // start at 4 tokens and only drain, so the bound is exactly 4.
    reachability_options query = full;
    query.reduction = reduction_kind::deadlock;
    for (const std::int64_t k :
         {std::int64_t{1}, std::int64_t{3}, std::int64_t{4}, std::int64_t{8}}) {
        const verdict expected = k >= 4 ? verdict::yes : verdict::no;
        EXPECT_EQ(check_k_bounded_explicit(net, k, full), expected) << "k " << k;
        EXPECT_EQ(check_k_bounded_explicit(net, k, query), expected) << "k " << k;
    }
}

TEST(ltlx_stubborn, explore_space_dispatch_carries_the_ltlx_reduction)
{
    const petri_net net = cycle_of_choices();
    reachability_options options;
    options.reduction = reduction_kind::ltl_x;
    const state_space sequential = explore_space(net, options);
    expect_proviso_holds(net, sequential);
    options.threads = 4;
    expect_identical_spaces(sequential, explore_space(net, options));
}

} // namespace
} // namespace fcqss::pn
