// Complexity claims of Secs. 3-4: the number of T-reductions is exponential
// in the number of (reachable, independent) choices, per-reduction static
// scheduling is polynomial, and the size of the generated C code is linear
// in the size of the net.  This bench constructs parameterized net families
// and prints the measured series.
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "codegen/c_emitter.hpp"
#include "codegen/task_codegen.hpp"
#include "obs/obs.hpp"
#include "pipeline/fuzz.hpp"
#include "pipeline/net_generator.hpp"
#include "pn/builder.hpp"
#include "pn/coverability.hpp"
#include "pn/parallel_explore.hpp"
#include "pn/reachability.hpp"
#include "pn/state_space.hpp"
#include "pn/stubborn.hpp"
#include "qss/scheduler.hpp"
#include "qss/task_partition.hpp"

namespace {

using namespace fcqss;

// One source fanning into `choices` sequential binary choices: every choice
// place is reachable under every allocation, so the reduction count is
// exactly 2^choices.
pn::petri_net parallel_choices(int choices)
{
    pn::net_builder b("choices_" + std::to_string(choices));
    const auto src = b.add_transition("src");
    for (int i = 0; i < choices; ++i) {
        std::string place = "c";
        place += std::to_string(i);
        const auto p = b.add_place(place);
        b.add_arc(src, p);
        const auto yes = b.add_transition("yes" + std::to_string(i));
        const auto no = b.add_transition("no" + std::to_string(i));
        b.add_arc(p, yes);
        b.add_arc(p, no);
    }
    return std::move(b).build();
}

// A plain processing pipeline of `length` stages (no choices): generated
// code should grow linearly with it.
pn::petri_net pipeline(int length)
{
    pn::net_builder b("pipe_" + std::to_string(length));
    auto prev = b.add_transition("src");
    for (int i = 0; i < length; ++i) {
        std::string place = "p";
        place += std::to_string(i);
        std::string transition = "t";
        transition += std::to_string(i);
        const auto p = b.add_place(place);
        b.add_arc(prev, p);
        prev = b.add_transition(transition);
        b.add_arc(p, prev);
    }
    return std::move(b).build();
}

// The first generated net of `family` with at least `min_transitions`
// transitions, growing the generator knobs until one appears (the growth is
// random, so single draws can come up short).  `source_credit` > 0 bounds
// every source to that many firings (finite state space — the reduction
// rows need full exploration to mean something).
pn::petri_net generated_net(pipeline::net_family family, std::size_t min_transitions,
                            int source_credit = 0)
{
    pipeline::generator_options options;
    options.family = family;
    options.token_load = 2;
    options.source_credit = source_credit;
    // Start each family just under the floor (growth is exponential in depth
    // for the branching families, linear for marked graphs) so the nets land
    // near min_transitions instead of far above it.
    switch (family) {
    case pipeline::net_family::marked_graph:
        options.sources = 10;
        options.depth = 50;
        break;
    case pipeline::net_family::free_choice:
        options.sources = 4;
        options.depth = 12;
        break;
    case pipeline::net_family::choice_heavy:
        options.sources = 3;
        options.depth = 7;
        break;
    case pipeline::net_family::client_server:
    case pipeline::net_family::layered_pipeline:
    case pipeline::net_family::bursty_multirate:
        // The production families size by sources x depth directly; the
        // growth loop below widens them the same way.
        options.sources = 8;
        options.depth = 8;
        break;
    }
    for (;;) {
        pipeline::net_generator generator(99, options);
        for (int i = 0; i < 4; ++i) {
            pn::petri_net net = generator.next();
            if (net.transition_count() >= min_transitions) {
                return net;
            }
        }
        options.depth += 2;
        ++options.sources;
    }
}

// Wall-clock states/second of one pn::explore_reference run.
double reference_states_per_second(const pn::petri_net& net,
                                   const pn::reachability_options& options,
                                   std::size_t& states_out)
{
    const auto start = std::chrono::steady_clock::now();
    const pn::reachability_graph graph = pn::explore_reference(net, options);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    states_out = graph.size();
    benchmark::DoNotOptimize(graph);
    return static_cast<double>(states_out) / elapsed.count();
}

// Best-of-`runs` wall-clock states/second of the engine itself (compact
// state space, no graph materialization), at a given thread count.
// `truncated_out`, when given, reports whether the exploration hit a budget.
double engine_states_per_second(const pn::petri_net& net,
                                const pn::reachability_options& options, int runs,
                                std::size_t& states_out,
                                bool* truncated_out = nullptr)
{
    double best_seconds = 0.0;
    for (int run = 0; run < runs; ++run) {
        const auto start = std::chrono::steady_clock::now();
        const pn::state_space space = pn::explore_space(net, options);
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        states_out = space.state_count();
        if (truncated_out != nullptr) {
            *truncated_out = space.truncated();
        }
        benchmark::DoNotOptimize(space);
        if (run == 0 || elapsed.count() < best_seconds) {
            best_seconds = elapsed.count();
        }
    }
    return static_cast<double>(states_out) / best_seconds;
}

// The arena-interned engine (pn::explore_space, compact result) against
// pn::explore_reference, the naive BFS that builds a graph of marking
// objects and is kept for exactly this comparison.
void report_state_space_engine()
{
    benchutil::heading("state-space engine states/second (arena vs naive reference)");
    std::printf("  %8s %8s %8s %12s %12s %9s\n", "family", "|T|", "states", "ref st/s",
                "arena st/s", "speedup");
    const pn::reachability_options options{.max_markings = 4000,
                                           .max_tokens_per_place = 1 << 20};
    for (const pipeline::net_family family :
         {pipeline::net_family::free_choice, pipeline::net_family::choice_heavy,
          pipeline::net_family::marked_graph}) {
        const pn::petri_net net = generated_net(family, 500);
        std::size_t states = 0;
        // One reference run (it is the slow side by orders of magnitude),
        // best-of-three for the arena engine.
        const double reference = reference_states_per_second(net, options, states);
        const double arena = engine_states_per_second(net, options, 3, states);
        std::printf("  %8s %8zu %8zu %12.0f %12.0f %8.1fx\n",
                    pipeline::to_string(family), net.transition_count(), states,
                    reference, arena, arena / reference);
        const std::string prefix = std::string(pipeline::to_string(family)) + " ";
        benchutil::row(prefix + "transitions", std::to_string(net.transition_count()));
        benchutil::row(prefix + "states explored", std::to_string(states));
        benchutil::row(prefix + "reference states/s",
                       std::to_string(static_cast<long long>(reference)));
        benchutil::row(prefix + "arena states/s",
                       std::to_string(static_cast<long long>(arena)));
        char speedup[32];
        std::snprintf(speedup, sizeof speedup, "%.2f", arena / reference);
        benchutil::row(prefix + "speedup", speedup);
    }
}

// Thread-scaling rows for the sharded parallel engine (PR 3 tentpole): the
// same exploration at 1/2/4 threads against the sequential engine, on
// >= 500-transition generated nets.  CI gates on the best "par4 speedup"
// row staying >= 2x.  Beside them, the deterministic row footprint of the
// 4-thread result: "<family> row B/state" is arena bytes per state (count
// width x places, plus chunk slack) next to "<family> places"; CI gates
// mg and choice at <= 2 bytes per place (8-byte counts would read 8).
void report_parallel_engine()
{
    benchutil::heading(
        "parallel engine states/second (sharded workers vs sequential engine)");
    std::printf("  %8s %8s %8s %12s %12s %12s %9s\n", "family", "|T|", "states",
                "seq st/s", "par2 st/s", "par4 st/s", "par4 x");
    pn::reachability_options options{.max_markings = 60000,
                                     .max_tokens_per_place = 1 << 20};
    for (const pipeline::net_family family :
         {pipeline::net_family::free_choice, pipeline::net_family::choice_heavy,
          pipeline::net_family::marked_graph}) {
        const pn::petri_net net = generated_net(family, 500);
        std::size_t states = 0;
        options.threads = 1;
        const double sequential = engine_states_per_second(net, options, 3, states);
        options.threads = 2;
        const double par2 = engine_states_per_second(net, options, 3, states);
        options.threads = 4;
        const double par4 = engine_states_per_second(net, options, 3, states);
        std::printf("  %8s %8zu %8zu %12.0f %12.0f %12.0f %8.2fx\n",
                    pipeline::to_string(family), net.transition_count(), states,
                    sequential, par2, par4, par4 / sequential);
        const std::string prefix = std::string(pipeline::to_string(family)) + " ";
        benchutil::row(prefix + "par transitions",
                       std::to_string(net.transition_count()));
        const pn::state_space space = pn::explore_space(net, options);
        char row_bytes[32];
        std::snprintf(row_bytes, sizeof row_bytes, "%.1f",
                      static_cast<double>(space.store().arena_bytes()) /
                          static_cast<double>(space.state_count()));
        benchutil::row(prefix + "places", std::to_string(net.place_count()));
        benchutil::row(prefix + "row B/state", row_bytes);
        benchutil::row(prefix + "seq states/s",
                       std::to_string(static_cast<long long>(sequential)));
        benchutil::row(prefix + "par2 states/s",
                       std::to_string(static_cast<long long>(par2)));
        benchutil::row(prefix + "par4 states/s",
                       std::to_string(static_cast<long long>(par4)));
        char speedup[32];
        std::snprintf(speedup, sizeof speedup, "%.2f", par2 / sequential);
        benchutil::row(prefix + "par2 speedup", speedup);
        std::snprintf(speedup, sizeof speedup, "%.2f", par4 / sequential);
        benchutil::row(prefix + "par4 speedup", speedup);
    }
}

// Bit-identity of two compact state spaces: same ids, decoded tokens, CSR
// rows, truncation verdict.
bool identical_spaces(const pn::state_space& a, const pn::state_space& b)
{
    if (a.state_count() != b.state_count() || a.edge_count() != b.edge_count() ||
        a.truncated() != b.truncated()) {
        return false;
    }
    std::vector<std::int64_t> at(a.store().width());
    std::vector<std::int64_t> bt(b.store().width());
    for (pn::state_id s = 0; s < static_cast<pn::state_id>(a.state_count()); ++s) {
        a.load(s, at.data());
        b.load(s, bt.data());
        if (at != bt) {
            return false;
        }
        const auto ae = a.successors(s);
        const auto be = b.successors(s);
        if (!std::equal(ae.begin(), ae.end(), be.begin(), be.end())) {
            return false;
        }
    }
    return true;
}

// External-memory rows: the sequential engine on a free-choice net at
// increasing spill pressure.  The budget is derived from the unlimited run's
// own arena size B: @0 runs with 2B (pager engaged, no eviction), @0.5 with
// B/2 and @0.9 with B/10 (nearly everything cold).  Bit-identity of the @0.5
// run against the unlimited run is reported as a 0/1 row and gated by CI;
// bench_diff tracks "spill states/s @0.5" with a fail-below floor so reads
// of evicted rows through the mapping cannot quietly collapse.
void report_spill()
{
    benchutil::heading("external-memory exploration (mmap spill, sequential "
                       "engine, budget from the unlimited run's arena)");
    std::printf("  %8s %8s %12s %12s %12s %10s\n", "|T|", "states", "st/s @0",
                "st/s @0.5", "st/s @0.9", "identical");
    const pn::petri_net net = generated_net(pipeline::net_family::free_choice, 500);
    pn::reachability_options options{.max_markings = 60000,
                                     .max_tokens_per_place = 1 << 20};
    options.threads = 1;
    const pn::state_space unlimited = pn::explore_space(net, options);
    const std::size_t arena = unlimited.store().arena_bytes();

    std::size_t states = 0;
    options.max_bytes = arena * 2;
    const double rate0 = engine_states_per_second(net, options, 3, states);
    options.max_bytes = std::max<std::size_t>(arena / 2, 4096);
    const double rate50 = engine_states_per_second(net, options, 3, states);
    const bool identical =
        identical_spaces(unlimited, pn::explore_space(net, options));
    options.max_bytes = std::max<std::size_t>(arena / 10, 4096);
    const double rate90 = engine_states_per_second(net, options, 3, states);

    std::printf("  %8zu %8zu %12.0f %12.0f %12.0f %10s\n", net.transition_count(),
                states, rate0, rate50, rate90, identical ? "yes" : "NO");
    benchutil::row("spill arena bytes", std::to_string(arena));
    benchutil::row("spill states/s @0", std::to_string(static_cast<long long>(rate0)));
    benchutil::row("spill states/s @0.5",
                   std::to_string(static_cast<long long>(rate50)));
    benchutil::row("spill states/s @0.9",
                   std::to_string(static_cast<long long>(rate90)));
    benchutil::row("spill identical @0.5", identical ? "1" : "0");
}

// Stubborn-set reduction rows: full vs deadlock-reduced state counts and
// reduced-engine throughput on >= 500-transition credit-bounded nets.  The
// row labels are load-bearing — CI gates on the choice-heavy "reduction
// ratio" row staying >= 2x, and tools/bench_diff.py greps them verbatim.
// The ratio is only emitted when the *reduced* run completed: it then reads
// "the reduction covers the whole space in 1/ratio of the states the full
// exploration burns before the budget" (a lower bound whenever the full
// side truncates).  A reduced run that also truncates would make the row a
// meaningless 1.00, so it is reported as n/a instead — bench_diff tracks
// the ratio rows, and a degenerate value would read as a real trajectory.
void report_stubborn_reduction()
{
    benchutil::heading("stubborn-set reduction (full vs deadlock-preserving "
                       "reduced exploration)");
    std::printf("  %8s %8s %10s %10s %9s %12s\n", "family", "|T|", "full st",
                "reduced st", "ratio", "red st/s");
    pn::reachability_options options{.max_markings = 60000,
                                     .max_tokens_per_place = 1 << 20};
    for (const pipeline::net_family family :
         {pipeline::net_family::free_choice, pipeline::net_family::choice_heavy,
          pipeline::net_family::marked_graph}) {
        const pn::petri_net net = generated_net(family, 500, 1);
        std::size_t full_states = 0;
        std::size_t reduced_states = 0;
        bool reduced_truncated = false;
        options.reduction = pn::reduction_kind::none;
        engine_states_per_second(net, options, 1, full_states);
        options.reduction = pn::reduction_kind::deadlock;
        const double reduced_rate = engine_states_per_second(
            net, options, 3, reduced_states, &reduced_truncated);
        const double ratio =
            static_cast<double>(full_states) /
            static_cast<double>(std::max<std::size_t>(1, reduced_states));
        char ratio_text[32];
        if (reduced_truncated) {
            std::snprintf(ratio_text, sizeof ratio_text, "n/a");
        } else {
            std::snprintf(ratio_text, sizeof ratio_text, "%.2f", ratio);
        }
        std::printf("  %8s %8zu %10zu %10zu %9s %12.0f\n",
                    pipeline::to_string(family), net.transition_count(), full_states,
                    reduced_states, ratio_text, reduced_rate);
        const std::string prefix = std::string(pipeline::to_string(family)) + " ";
        benchutil::row(prefix + "full states", std::to_string(full_states));
        benchutil::row(prefix + "reduced states", std::to_string(reduced_states));
        if (!reduced_truncated) {
            benchutil::row(prefix + "reduction ratio", ratio_text);
        }
        benchutil::row(prefix + "reduced states/s",
                       std::to_string(static_cast<long long>(reduced_rate)));
    }
}

// Karp–Miller timing row: build_coverability_tree now reuses the engines'
// incremental enabled-set index instead of rescanning all of T per node
// (tracked by bench_diff as "km nodes/s").
void report_coverability()
{
    benchutil::heading("coverability (Karp–Miller) nodes/second");
    std::printf("  %8s %8s %8s %12s\n", "family", "|T|", "nodes", "nodes/s");
    for (const pipeline::net_family family :
         {pipeline::net_family::free_choice, pipeline::net_family::marked_graph}) {
        const pn::petri_net net = generated_net(family, 500);
        const pn::coverability_options options{.max_nodes = 20000};
        double best_seconds = 0.0;
        std::size_t nodes = 0;
        for (int run = 0; run < 3; ++run) {
            const auto start = std::chrono::steady_clock::now();
            const pn::coverability_tree tree = pn::build_coverability_tree(net, options);
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start;
            nodes = tree.size();
            benchmark::DoNotOptimize(tree);
            if (run == 0 || elapsed.count() < best_seconds) {
                best_seconds = elapsed.count();
            }
        }
        const double rate = static_cast<double>(nodes) / best_seconds;
        std::printf("  %8s %8zu %8zu %12.0f\n", pipeline::to_string(family),
                    net.transition_count(), nodes, rate);
        const std::string prefix = std::string(pipeline::to_string(family)) + " ";
        benchutil::row(prefix + "km nodes", std::to_string(nodes));
        benchutil::row(prefix + "km nodes/s",
                       std::to_string(static_cast<long long>(rate)));
    }
}

// Telemetry overhead rows: the same single-threaded choice-heavy
// exploration with obs runtime-disabled (each instrumentation site costs
// one predicted branch) vs enabled-but-idle (counters increment, nobody
// snapshots).  CI gates on the overhead staying < 2%.
void report_obs_overhead()
{
    benchutil::heading("obs overhead: telemetry runtime-off vs enabled-but-idle");
    std::printf("  %8s %12s %12s %10s\n", "states", "off st/s", "idle st/s",
                "overhead");
    const pn::petri_net net = generated_net(pipeline::net_family::choice_heavy, 500, 1);
    pn::reachability_options options{.max_markings = 60000,
                                     .max_tokens_per_place = 1 << 20};
    options.threads = 1;
    std::size_t states = 0;
    obs::set_stats_enabled(false);
    obs::set_tracing_enabled(false);
    const double off = engine_states_per_second(net, options, 5, states);
    obs::set_stats_enabled(true);
    const double idle = engine_states_per_second(net, options, 5, states);
    obs::set_stats_enabled(false);
    obs::reset();
    const double pct = off > 0 ? (off - idle) / off * 100.0 : 0.0;
    std::printf("  %8zu %12.0f %12.0f %+9.2f%%\n", states, off, idle, pct);
    benchutil::row("obs off st/s", std::to_string(static_cast<long long>(off)));
    benchutil::row("obs idle st/s", std::to_string(static_cast<long long>(idle)));
    char pct_text[32];
    std::snprintf(pct_text, sizeof pct_text, "%.2f", pct);
    benchutil::row("obs idle overhead pct", pct_text);
}

// Engine-internals rows from the obs counters: one deadlock-reduced
// 4-thread exploration of a choice-heavy net, then derived health metrics.  These
// are informational for tools/bench_diff.py (--info-metric): probe rate can
// legitimately move either way, so it must never trip --fail-below.
void report_obs_counters()
{
    benchutil::heading("engine telemetry (obs counters, choice-heavy deadlock-reduced "
                       "run)");
    const pn::petri_net net = generated_net(pipeline::net_family::choice_heavy, 500, 1);
    pn::reachability_options options{.max_markings = 60000,
                                     .max_tokens_per_place = 1 << 20};
    options.threads = 4;
    options.reduction = pn::reduction_kind::deadlock;
    obs::reset();
    obs::set_stats_enabled(true);
    std::size_t states = 0;
    engine_states_per_second(net, options, 1, states);
    const double probes =
        static_cast<double>(obs::get_counter("pn.store.hash_probes").value());
    const double hits =
        static_cast<double>(obs::get_counter("pn.store.dedup_hits").value());
    const double inserts =
        static_cast<double>(obs::get_counter("pn.store.inserts").value());
    const double imbalance = obs::get_gauge("pn.par.shard_imbalance").value();
    obs::set_stats_enabled(false);
    obs::reset();
    const double interns = std::max(1.0, hits + inserts);
    const double probe_rate = probes / interns;
    const double hit_rate = hits / interns;
    std::printf("  %8s %12s %12s %14s\n", "states", "probe rate", "hit rate",
                "shard imbal");
    std::printf("  %8zu %12.3f %12.3f %14.3f\n", states, probe_rate, hit_rate,
                imbalance);
    char text[32];
    std::snprintf(text, sizeof text, "%.3f", probe_rate);
    benchutil::row("choice probe rate", text);
    std::snprintf(text, sizeof text, "%.3f", hit_rate);
    benchutil::row("choice dedup hit rate", text);
    std::snprintf(text, sizeof text, "%.3f", imbalance);
    benchutil::row("choice shard imbalance", text);
}

// Differential fuzz throughput (this PR's tentpole): full verdict-matrix
// runs per second over generated+mutated nets of all six families, under
// the harness's default tight budgets.  Tracked by bench_diff as "fuzz
// mutants/s" — a drop means the seq/par/reduced matrix itself got slower,
// which directly shrinks how many mutants a CI fuzz minute covers.  The
// findings count is printed too; anything nonzero is a correctness bug.
void report_fuzz_throughput()
{
    benchutil::heading("differential fuzz throughput (verdict matrix, 6 families)");
    pipeline::fuzz_options options;
    options.seeds = 96;
    double best_seconds = 0.0;
    std::size_t mutants = 0;
    std::size_t findings = 0;
    for (int run = 0; run < 3; ++run) {
        const auto start = std::chrono::steady_clock::now();
        const pipeline::fuzz_report fuzzed = pipeline::run_fuzz(options);
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        mutants = fuzzed.mutants;
        findings = fuzzed.findings.size();
        benchmark::DoNotOptimize(fuzzed);
        if (run == 0 || elapsed.count() < best_seconds) {
            best_seconds = elapsed.count();
        }
    }
    const double rate = static_cast<double>(mutants) / best_seconds;
    std::printf("  %8s %12s %10s\n", "mutants", "mutants/s", "findings");
    std::printf("  %8zu %12.0f %10zu\n", mutants, rate, findings);
    benchutil::row("fuzz mutants", std::to_string(mutants));
    benchutil::row("fuzz mutants/s", std::to_string(static_cast<long long>(rate)));
    benchutil::row("fuzz findings", std::to_string(findings));
}

void report()
{
    report_state_space_engine();
    report_parallel_engine();
    report_spill();
    report_stubborn_reduction();
    report_coverability();
    report_obs_overhead();
    report_obs_counters();
    report_fuzz_throughput();

    benchutil::heading("T-reduction count vs number of choices (exponential)");
    std::printf("  %8s %12s %12s\n", "choices", "allocations", "reductions");
    for (int choices = 1; choices <= 10; ++choices) {
        const auto net = parallel_choices(choices);
        const auto result = qss::quasi_static_schedule(net);
        std::printf("  %8d %12zu %12zu\n", choices, result.allocations_enumerated,
                    result.entries.size());
    }

    benchutil::heading("Generated code size vs net size (linear, Sec. 4 claim)");
    std::printf("  %8s %12s %12s %14s\n", "stages", "transitions", "C lines",
                "lines/stage");
    for (int length : {4, 8, 16, 32, 64, 128}) {
        const auto net = pipeline(length);
        const auto result = qss::quasi_static_schedule(net);
        const auto partition = qss::partition_tasks(net, result);
        const auto program = cgen::generate_program(net, result, partition);
        const int lines = cgen::emitted_line_count(program);
        std::printf("  %8d %12zu %12d %14.2f\n", length, net.transition_count(), lines,
                    static_cast<double>(lines) / length);
    }
}

void bm_explore_arena(benchmark::State& state)
{
    const auto net = generated_net(pipeline::net_family::free_choice, 500);
    const pn::reachability_options options{.max_markings =
                                               static_cast<std::size_t>(state.range(0)),
                                           .max_tokens_per_place = 1 << 20};
    for (auto _ : state) {
        benchmark::DoNotOptimize(pn::explore_space(net, options));
    }
}
BENCHMARK(bm_explore_arena)->Arg(1000)->Arg(4000);

void bm_explore_reference(benchmark::State& state)
{
    const auto net = generated_net(pipeline::net_family::free_choice, 500);
    const pn::reachability_options options{.max_markings =
                                               static_cast<std::size_t>(state.range(0)),
                                           .max_tokens_per_place = 1 << 20};
    for (auto _ : state) {
        benchmark::DoNotOptimize(pn::explore_reference(net, options));
    }
}
// The reference is ~two orders of magnitude slower; keep its timing loop
// small so default bench runs stay bounded.
BENCHMARK(bm_explore_reference)->Arg(1000);

void bm_explore_parallel(benchmark::State& state)
{
    const auto net = generated_net(pipeline::net_family::free_choice, 500);
    const pn::reachability_options options{
        .max_markings = 20000,
        .max_tokens_per_place = 1 << 20,
        .threads = static_cast<std::size_t>(state.range(0))};
    for (auto _ : state) {
        benchmark::DoNotOptimize(pn::explore_parallel(net, options));
    }
}
BENCHMARK(bm_explore_parallel)->Arg(1)->Arg(2)->Arg(4);

void bm_explore_stubborn(benchmark::State& state)
{
    const auto net = generated_net(pipeline::net_family::choice_heavy, 500, 2);
    const pn::reachability_options options{
        .max_markings = static_cast<std::size_t>(state.range(0)),
        .max_tokens_per_place = 1 << 20,
        .reduction = pn::reduction_kind::deadlock};
    for (auto _ : state) {
        benchmark::DoNotOptimize(pn::explore_state_space(net, options));
    }
}
BENCHMARK(bm_explore_stubborn)->Arg(20000);

void bm_qss_vs_choices(benchmark::State& state)
{
    const auto net = parallel_choices(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(qss::quasi_static_schedule(net));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_qss_vs_choices)->DenseRange(2, 10, 2)->Complexity();

void bm_codegen_vs_pipeline(benchmark::State& state)
{
    const auto net = pipeline(static_cast<int>(state.range(0)));
    const auto result = qss::quasi_static_schedule(net);
    const auto partition = qss::partition_tasks(net, result);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cgen::generate_program(net, result, partition));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_codegen_vs_pipeline)->RangeMultiplier(2)->Range(8, 128)->Complexity();

} // namespace

FCQSS_BENCH_MAIN(report)
