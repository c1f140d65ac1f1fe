// The scheduler enumerates distinct T-reductions by a pruned depth-first walk
// instead of reducing every T-allocation.  This suite holds it to the
// brute-force oracle (testutil::brute_force_schedule: reduce every
// allocation, keep first occurrences) on every net the oracle can finish —
// the paper nets, the ATM net, the fuzz corpus, the free-choice generator
// families at two token loads, and the random nets of test_util: the same
// entries (subnets, representative allocations, order), verdict,
// failure class and diagnosis, and for schedulable nets the same cycles and
// the same emitted C.  Property tests pin the premises the pruning rests
// on: the reduction is monotone in the removed set, and a choice whose place
// the decided prefix already removed cannot change the reduction.  The
// oracle checks each reduction on its own (materialize + Farkas), while the
// scheduler filters the net's own invariants and simulates on the net, so
// the premises of that shortcut are pinned here too, and a mutant sweep
// holds both to the same verdict in every failure class.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/atm/atm_net.hpp"
#include "base/error.hpp"
#include "codegen/c_emitter.hpp"
#include "codegen/task_codegen.hpp"
#include "nets/paper_nets.hpp"
#include "obs/obs.hpp"
#include "pipeline/net_generator.hpp"
#include "pn/invariants.hpp"
#include "pn/mutator.hpp"
#include "pnio/parser.hpp"
#include "qss/reduction.hpp"
#include "qss/scheduler.hpp"
#include "qss/task_partition.hpp"
#include "test_util.hpp"

#ifndef FCQSS_CORPUS_DIR
#error "FCQSS_CORPUS_DIR must point at tests/corpus (set by CMakeLists.txt)"
#endif

namespace fcqss {
namespace {

/// Largest allocation space the brute-force oracle is run on.
constexpr std::size_t oracle_space = 1u << 13;

std::string emitted_c(const pn::petri_net& net, const qss::qss_result& result)
{
    return cgen::emit_c(
        cgen::generate_program(net, result, qss::partition_tasks(net, result)));
}

/// Runs `schedule`, turning an exception into its message.
template <typename Fn>
std::optional<qss::qss_result> run_capturing(Fn&& schedule, std::string& error)
{
    try {
        return schedule();
    } catch (const std::exception& e) {
        error = e.what();
        return std::nullopt;
    }
}

/// The first way the scheduler's result differs from the oracle's on `net`,
/// or "" when they agree.  Sets `compared` to false (and returns "") when the
/// allocation space is too large for the oracle.  When the net is compared
/// and scheduled, `scheduled` (if given) receives the scheduler's result.
std::string first_difference(const pn::petri_net& net, bool& compared,
                             qss::qss_result* scheduled = nullptr)
{
    compared = false;
    try {
        if (qss::allocation_count(qss::choice_clusters(net)) > oracle_space) {
            return "";
        }
    } catch (const domain_error&) {
        // Outside the class: both sides must reject it the same way.
    }
    compared = true;

    std::string oracle_error;
    std::string fast_error;
    const auto oracle =
        run_capturing([&] { return testutil::brute_force_schedule(net); }, oracle_error);
    const auto fast =
        run_capturing([&] { return qss::quasi_static_schedule(net); }, fast_error);
    if (oracle_error != fast_error) {
        return "errors differ: oracle '" + oracle_error + "', scheduler '" + fast_error + "'";
    }
    if (!oracle) {
        return "";
    }
    if (scheduled != nullptr) {
        *scheduled = *fast;
    }

    if (fast->allocations_enumerated != oracle->allocations_enumerated) {
        return "allocation space differs";
    }
    if (fast->entries.size() != oracle->entries.size()) {
        return "entry count " + std::to_string(fast->entries.size()) + " vs oracle " +
               std::to_string(oracle->entries.size());
    }
    for (std::size_t i = 0; i < fast->entries.size(); ++i) {
        const qss::schedule_entry& got = fast->entries[i];
        const qss::schedule_entry& want = oracle->entries[i];
        const std::string where = "entry " + std::to_string(i) + ": ";
        if (!got.reduction.same_subnet(want.reduction)) {
            return where + "subnet differs";
        }
        if (got.reduction.allocation != want.reduction.allocation) {
            return where + "representative " +
                   qss::to_string(net, fast->clusters, got.reduction.allocation) +
                   " vs oracle " +
                   qss::to_string(net, oracle->clusters, want.reduction.allocation);
        }
        if (got.analysis.failure != want.analysis.failure ||
            got.analysis.offending != want.analysis.offending ||
            got.analysis.invariants != want.analysis.invariants ||
            got.analysis.cycle_vector != want.analysis.cycle_vector ||
            got.analysis.cycle != want.analysis.cycle) {
            return where + "Def. 3.5 analysis differs";
        }
    }
    if (fast->schedulable != oracle->schedulable || fast->failure != oracle->failure ||
        fast->diagnosis != oracle->diagnosis) {
        return "verdict differs: '" + fast->diagnosis + "' vs oracle '" +
               oracle->diagnosis + "'";
    }
    if (fast->schedulable && emitted_c(net, *fast) != emitted_c(net, *oracle)) {
        return "emitted C differs";
    }
    return "";
}

/// Compares every net, failing with the net's name on a difference; returns
/// how many nets the oracle could finish.
std::size_t expect_oracle_agreement(const std::vector<pn::petri_net>& nets)
{
    std::size_t compared_count = 0;
    for (const pn::petri_net& net : nets) {
        bool compared = false;
        EXPECT_EQ(first_difference(net, compared), "") << net.name();
        compared_count += compared ? 1 : 0;
    }
    return compared_count;
}

std::vector<pn::petri_net> paper_nets()
{
    return {nets::figure_1a(), nets::figure_1b(), nets::figure_2(), nets::figure_3a(),
            nets::figure_3b(), nets::figure_4(),  nets::figure_5(), nets::figure_7()};
}

std::vector<pn::petri_net> corpus_nets()
{
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(FCQSS_CORPUS_DIR)) {
        if (entry.path().extension() == ".pn") {
            files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    std::vector<pn::petri_net> nets;
    for (const std::filesystem::path& path : files) {
        std::ifstream in(path);
        std::ostringstream text;
        text << in.rdbuf();
        nets.push_back(pnio::parse_net(text.str()));
    }
    return nets;
}

constexpr pipeline::net_family free_choice_families[] = {
    pipeline::net_family::free_choice,      pipeline::net_family::choice_heavy,
    pipeline::net_family::marked_graph,     pipeline::net_family::layered_pipeline,
    pipeline::net_family::bursty_multirate,
};

/// `count` nets of one generator stream.
std::vector<pn::petri_net> generated_nets(pipeline::net_family family, std::uint64_t seed,
                                          int token_load, int depth, std::size_t count)
{
    pipeline::generator_options options;
    options.family = family;
    options.token_load = token_load;
    options.depth = depth;
    return pipeline::net_generator(seed, options).make(count);
}

/// Free-choice nets for the property tests: generated fc / choice-heavy
/// nets and random test_util nets with at least two clusters.
std::vector<pn::petri_net> property_nets()
{
    std::vector<pn::petri_net> nets;
    for (const auto family :
         {pipeline::net_family::free_choice, pipeline::net_family::choice_heavy}) {
        for (pn::petri_net& net : generated_nets(family, 5, 2, 4, 30)) {
            nets.push_back(std::move(net));
        }
    }
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        nets.push_back(testutil::random_free_choice_net(seed, {.choice_percent = 55}));
    }
    std::erase_if(nets, [](const pn::petri_net& net) {
        return qss::choice_clusters(net).size() < 2;
    });
    return nets;
}

// ------------------------------------------------------ differential --

TEST(qss_enumeration, paper_nets_match_the_oracle)
{
    EXPECT_EQ(expect_oracle_agreement(paper_nets()), 8u);
}

TEST(qss_enumeration, atm_net_matches_the_oracle)
{
    const std::vector<pn::petri_net> atm{atm::build_atm_net()};
    EXPECT_EQ(expect_oracle_agreement(atm), 1u);
}

TEST(qss_enumeration, corpus_matches_the_oracle)
{
    const std::vector<pn::petri_net> corpus = corpus_nets();
    ASSERT_GE(corpus.size(), 20u);
    EXPECT_EQ(expect_oracle_agreement(corpus), corpus.size());
}

TEST(qss_enumeration, generator_families_match_the_oracle)
{
    std::size_t compared = 0;
    std::size_t nets = 0;
    for (const pipeline::net_family family : free_choice_families) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            for (const int token_load : {0, 2}) {
                // A shallow stream keeps most choice-heavy nets in the
                // oracle's reach; the default depth adds bigger nets.
                for (const int depth : {3, 4}) {
                    const std::vector<pn::petri_net> stream =
                        generated_nets(family, seed, token_load, depth, 12);
                    compared += expect_oracle_agreement(stream);
                    nets += stream.size();
                }
            }
        }
    }
    // The oracle finishes most nets; the rest are too large for it.
    EXPECT_GE(compared * 10, nets * 7) << compared << " of " << nets;
}

TEST(qss_enumeration, random_nets_match_the_oracle)
{
    std::vector<pn::petri_net> nets;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        testutil::random_net_options options;
        options.sources = 1 + static_cast<int>(seed % 3);
        options.choice_percent = 25 + static_cast<int>(seed % 4) * 10;
        nets.push_back(testutil::random_free_choice_net(seed * 7919 + 13, options));
    }
    EXPECT_GE(expect_oracle_agreement(nets), 200u);
}

// --------------------------------------------------- pruning premises --

/// Every transition that is the alternative of some choice cluster.
std::vector<pn::transition_id> all_alternatives(const std::vector<qss::choice_cluster>& clusters)
{
    std::vector<pn::transition_id> alternatives;
    for (const qss::choice_cluster& cluster : clusters) {
        alternatives.insert(alternatives.end(), cluster.alternatives.begin(),
                            cluster.alternatives.end());
    }
    return alternatives;
}

/// True when `larger` removes every node `smaller` removes.
bool removes_superset(const qss::t_reduction& smaller, const qss::t_reduction& larger)
{
    for (std::size_t t = 0; t < smaller.keep_transition.size(); ++t) {
        if (!smaller.keep_transition[t] && larger.keep_transition[t]) {
            return false;
        }
    }
    for (std::size_t p = 0; p < smaller.keep_place.size(); ++p) {
        if (!smaller.keep_place[p] && larger.keep_place[p]) {
            return false;
        }
    }
    return true;
}

TEST(qss_enumeration, reduction_is_monotone_in_the_excluded_set)
{
    testutil::prng rng(2024);
    std::size_t pairs = 0;
    for (const pn::petri_net& net : property_nets()) {
        const std::vector<pn::transition_id> alternatives =
            all_alternatives(qss::choice_clusters(net));
        for (int round = 0; round < 200; ++round) {
            // Y: each alternative with a random density; X: a random subset.
            const std::uint64_t density = 10 + rng.below(80);
            std::vector<pn::transition_id> larger;
            std::vector<pn::transition_id> smaller;
            for (const pn::transition_id t : alternatives) {
                if (rng.below(100) < density) {
                    larger.push_back(t);
                    if (rng.below(2) == 0) {
                        smaller.push_back(t);
                    }
                }
            }
            const qss::t_reduction x = qss::reduce_excluding(net, smaller);
            const qss::t_reduction y = qss::reduce_excluding(net, larger);
            ASSERT_TRUE(removes_superset(x, y)) << net.name() << " round " << round;
            ++pairs;
        }
    }
    EXPECT_GT(pairs, 10000u);
}

TEST(qss_enumeration, moot_choices_do_not_change_the_reduction)
{
    // The pruning premise itself: once the reduction of the decided prefix
    // removed a cluster's choice place, every alternative there gives the
    // same full reduction, whatever the later clusters choose.
    testutil::prng rng(99);
    std::size_t moot = 0;
    for (const pn::petri_net& net : property_nets()) {
        const std::vector<qss::choice_cluster> clusters = qss::choice_clusters(net);
        for (int round = 0; round < 20; ++round) {
            qss::t_allocation allocation;
            for (const qss::choice_cluster& cluster : clusters) {
                allocation.chosen.push_back(
                    cluster.alternatives[rng.below(cluster.alternatives.size())]);
            }
            const qss::t_reduction full = qss::reduce(net, clusters, allocation);
            std::vector<pn::transition_id> prefix;
            for (std::size_t i = 0; i < clusters.size(); ++i) {
                const bool removed =
                    !qss::reduce_excluding(net, prefix).keep_place[clusters[i].place.index()];
                for (const pn::transition_id t : clusters[i].alternatives) {
                    if (removed) {
                        qss::t_allocation other = allocation;
                        other.chosen[i] = t;
                        ASSERT_TRUE(qss::reduce(net, clusters, other).same_subnet(full))
                            << net.name() << " cluster " << i;
                    }
                    if (t != allocation.chosen[i]) {
                        prefix.push_back(t);
                    }
                }
                moot += removed ? 1 : 0;
            }
        }
    }
    EXPECT_GT(moot, 100u);
}

TEST(qss_enumeration, reduce_excluding_matches_reduce)
{
    const pn::petri_net net = atm::build_atm_net();
    const std::vector<qss::choice_cluster> clusters = qss::choice_clusters(net);
    for (const qss::t_allocation& allocation : testutil::enumerate_allocations(clusters)) {
        const qss::t_reduction expected = qss::reduce(net, clusters, allocation);
        std::vector<pn::transition_id> excluded =
            qss::excluded_transitions(clusters, allocation);
        std::reverse(excluded.begin(), excluded.end()); // order must not matter
        ASSERT_TRUE(qss::reduce_excluding(net, excluded).same_subnet(expected));
    }
}

// --------------------------------------------- shared analysis premises --

/// Checks every distinct reduction the scheduler finds on `net` against the
/// reduction on its own: (a) every input and output place of a kept
/// transition is kept; (b) the invariants filtered from the net's equal the
/// materialized reduction's own, lifted, in the same order; (c) each cycle,
/// mapped to the materialized reduction's ids, is a finite complete cycle of
/// it.  Returns the first violation or ""; counts reductions and cycles.
std::string analysis_premise_violation(const pn::petri_net& net, std::size_t& reductions,
                                       std::size_t& cycles)
{
    qss::scheduler_options options;
    options.max_allocations = SIZE_MAX;
    qss::qss_result result;
    try {
        result = qss::quasi_static_schedule(net, options);
    } catch (const domain_error&) {
        return ""; // outside the class: no reductions
    }
    for (std::size_t i = 0; i < result.entries.size(); ++i) {
        const qss::t_reduction& reduction = result.entries[i].reduction;
        const qss::reduction_schedule& analysis = result.entries[i].analysis;
        const std::string where = "entry " + std::to_string(i) + ": ";
        for (const pn::transition_id t : net.transitions()) {
            if (!reduction.keep_transition[t.index()]) {
                continue;
            }
            for (const auto& arcs : {net.inputs(t), net.outputs(t)}) {
                for (const pn::place_weight& arc : arcs) {
                    if (!reduction.keep_place[arc.place.index()]) {
                        return where + "kept " + net.transition_name(t) +
                               " touches removed place " + net.place_name(arc.place);
                    }
                }
            }
        }

        const qss::reduced_net sub = qss::materialize(net, reduction);
        std::vector<linalg::int_vector> lifted;
        for (const linalg::int_vector& x : pn::t_invariants(sub.net)) {
            linalg::int_vector y(net.transition_count(), 0);
            for (std::size_t k = 0; k < x.size(); ++k) {
                y[sub.to_original_transition[k].index()] = x[k];
            }
            lifted.push_back(std::move(y));
        }
        if (analysis.invariants != lifted) {
            return where + "filtered invariants differ from the reduction's own";
        }

        if (analysis.ok()) {
            std::vector<pn::transition_id> local(net.transition_count());
            for (std::size_t k = 0; k < sub.to_original_transition.size(); ++k) {
                local[sub.to_original_transition[k].index()] =
                    pn::transition_id{static_cast<std::int32_t>(k)};
            }
            pn::firing_sequence mapped;
            for (const pn::transition_id t : analysis.cycle) {
                mapped.push_back(local[t.index()]);
            }
            if (!pn::is_finite_complete_cycle(sub.net, mapped)) {
                return where + "cycle is not a finite complete cycle of the reduction";
            }
            ++cycles;
        }
        ++reductions;
    }
    return "";
}

TEST(qss_enumeration, net_invariants_filter_to_each_reductions_own)
{
    std::vector<pn::petri_net> nets = paper_nets();
    nets.push_back(atm::build_atm_net());
    for (pn::petri_net& net : corpus_nets()) {
        nets.push_back(std::move(net));
    }
    for (const pipeline::net_family family : free_choice_families) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            for (const int token_load : {0, 2}) {
                for (pn::petri_net& net :
                     generated_nets(family, seed, token_load, 4, 12)) {
                    nets.push_back(std::move(net));
                }
            }
        }
    }
    std::size_t reductions = 0;
    std::size_t cycles = 0;
    for (const pn::petri_net& net : nets) {
        EXPECT_EQ(analysis_premise_violation(net, reductions, cycles), "") << net.name();
    }
    EXPECT_GT(reductions, 20000u);
    EXPECT_GT(cycles, 20000u);
}

TEST(qss_enumeration, mutants_match_the_oracle_in_every_verdict_class)
{
    // The generators emit only schedulable free-choice nets, so mutants of
    // the paper nets, the ATM net and the corpus supply the failing classes:
    // random pn::mutate plans, plus one mutant per marked place that empties
    // it, which starves the cycles through that place (deadlock).
    std::vector<pn::petri_net> bases = paper_nets();
    bases.push_back(atm::build_atm_net());
    for (pn::petri_net& net : corpus_nets()) {
        bases.push_back(std::move(net));
    }
    std::vector<pn::petri_net> mutants;
    for (const pn::petri_net& base : bases) {
        for (std::uint64_t seed = 0; seed < 12; ++seed) {
            mutants.push_back(pn::mutate(base, seed, {.count = 2}).net);
        }
        for (const pn::place_id p : base.places()) {
            if (base.initial_tokens(p) > 0) {
                const pn::mutation empty{.kind = pn::mutation_kind::perturb_marking,
                                         .a = static_cast<std::uint32_t>(p.index()),
                                         .value = 0};
                mutants.push_back(pn::apply_mutations(base, {empty}).net);
            }
        }
    }

    std::map<qss::reduction_failure, std::size_t> verdicts;
    std::size_t compared_count = 0;
    for (std::size_t i = 0; i < mutants.size(); ++i) {
        bool compared = false;
        qss::qss_result scheduled;
        EXPECT_EQ(first_difference(mutants[i], compared, &scheduled), "")
            << "mutant " << i << " of " << mutants[i].name();
        compared_count += compared ? 1 : 0;
        for (const qss::schedule_entry& entry : scheduled.entries) {
            ++verdicts[entry.analysis.failure];
        }
    }
    // Every class occurs, so the sweep cannot pass vacuously.
    EXPECT_GT(compared_count, 300u);
    for (const qss::reduction_failure failure :
         {qss::reduction_failure::none, qss::reduction_failure::inconsistent,
          qss::reduction_failure::source_uncovered, qss::reduction_failure::deadlock}) {
        EXPECT_GT(verdicts[failure], 100u) << qss::to_string(failure);
    }
}

// ------------------------------------------------- output sensitivity --

/// A source feeding a chain of `depth` nested choices: alternative a_i
/// continues to the next choice, b_i ends the chain.  2^depth allocations,
/// depth + 1 distinct reductions.
pn::petri_net nested_choices(int depth)
{
    pn::net_builder b("nested" + std::to_string(depth));
    pn::transition_id feed = b.add_transition("src");
    for (int i = 0; i < depth; ++i) {
        const auto choice = b.add_place("c" + std::to_string(i));
        const auto go_on = b.add_transition("a" + std::to_string(i));
        const auto stop = b.add_transition("b" + std::to_string(i));
        b.add_arc(feed, choice);
        b.add_arc(choice, go_on);
        b.add_arc(choice, stop);
        feed = go_on;
    }
    return std::move(b).build();
}

TEST(qss_enumeration, work_follows_distinct_reductions_not_allocations)
{
    constexpr int depth = 40;
    const pn::petri_net net = nested_choices(depth);
    qss::scheduler_options options;
    options.max_allocations = SIZE_MAX;

    obs::reset();
    obs::set_stats_enabled(true);
    const qss::qss_result result = qss::quasi_static_schedule(net, options);
    obs::set_stats_enabled(false);

    EXPECT_TRUE(result.schedulable) << result.diagnosis;
    EXPECT_EQ(result.allocations_enumerated, std::size_t{1} << depth);
    EXPECT_EQ(result.entries.size(), static_cast<std::size_t>(depth) + 1);
    EXPECT_EQ(obs::get_counter("qss.leaf_reductions").value(), depth + 1u);
    EXPECT_LE(obs::get_counter("qss.prefix_reductions").value(), 2u * depth);
    obs::reset();

    // The default cap still bounds the allocation space.
    EXPECT_THROW((void)qss::quasi_static_schedule(net), resource_limit_error);
}

} // namespace
} // namespace fcqss
