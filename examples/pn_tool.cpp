// pn_tool: command-line front end for the whole pipeline.
//
//   pn_tool analyze  model.pn      structural + behavioural analysis
//   pn_tool schedule model.pn      quasi-static schedulability + cycles
//   pn_tool report   model.pn      full synthesis report
//   pn_tool codegen  model.pn      emit the synthesized C to stdout
//   pn_tool dot      model.pn      emit graphviz
//   pn_tool explore  [--threads N] [--max-states S] [--max-tokens K]
//                    [--max-bytes B[K|M|G]]
//                    [--reduce none|stubborn]
//                    [--stats[=FILE]] [--trace=FILE]
//                    model.pn      explicit state-space exploration on the
//                                  engine (N != 1 runs the sharded parallel
//                                  engine; results are identical).  --reduce
//                                  picks the pn::reduction_kind: stubborn
//                                  (deadlock) expands a deadlock-preserving
//                                  stubborn subset per state: deadlock
//                                  verdicts are exact, state counts shrink,
//                                  but the reachability set is partial.
//                                  --max-bytes caps the resident marking-
//                                  arena bytes: chunks spill to an mmap'd
//                                  temp file and cold ones are evicted; the
//                                  graph is bit-identical to the unlimited
//                                  run at any spill ratio.
//                                  --stats dumps the engine counters as
//                                  metrics JSONL (stdout, or FILE); --trace
//                                  writes a Chrome trace of the run's phase
//                                  spans, loadable in Perfetto
//   pn_tool batch    [--jobs N] [--max-allocations A] [--no-codegen]
//                    [--verbose] [--stats[=FILE]] [--trace=FILE] model.pn...
//                                  run the full flow over many nets in
//                                  parallel and print a batch report
//   pn_tool generate [--seed S] [--count N]
//                    [--family fc|mg|choice|client|layered|bursty]
//                    [--sources K] [--depth D] [--tokens L] [--defects P]
//                    [--credit C]
//                    --out DIR     write random workload nets as .pn files
//                                  (--credit C bounds each source to C
//                                  firings via a seeded credit place)
//   pn_tool fuzz     [--seeds N] [--seed-begin S] [--family F]...
//                    [--mutations M] [--max-states S] [--max-bytes B]
//                    [--threads N] [--no-shrink] [--no-synthesis] [--out DIR]
//                                  differential fuzzing: mutate generated
//                                  nets (pn/mutator.hpp) and require
//                                  agreeing verdicts across {sequential,
//                                  parallel} x {none, deadlock} plus a
//                                  clean synthesis verdict; disagreements
//                                  are shrunk to minimal .pn reproducers in
//                                  DIR (default fuzz-reproducers/), exit 1
//   pn_tool serve    [--jobs N] [--queue N] [--cache N]
//                    [--max-allocations A] [--no-codegen] [--no-code]
//                    [--max-input-bytes B] [--max-bytes B] [--tcp PORT]
//                    [--stats[=FILE]] [--trace=FILE]
//                                  resident synthesis service speaking
//                                  line-delimited JSON on stdin/stdout
//                                  (or a loopback TCP port with --tcp);
//                                  --max-bytes sets the server-owned
//                                  resident arena budget for "op":"explore"
//                                  requests; see src/svc/protocol.hpp for
//                                  the wire protocol and README for a
//                                  session
//
// Exit codes: single-net commands (analyze/schedule/report/codegen/dot)
// exit with the stable pipeline wire code of their outcome — 0 ok,
// 4 parse_failed, 6 not_free_choice, 7 not_schedulable, ... — the same
// numbers the service protocol sends as "code" (see pipeline::wire_code).
// Usage problems exit 2 everywhere; batch keeps its aggregate 0/1 contract.
//
// Example model files can be produced with pnio::save_net, written by hand
// (see the grammar in src/pnio/lexer.hpp), or generated with `generate`.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "apps/cli/cli.hpp"
#include "codegen/c_emitter.hpp"
#include "codegen/task_codegen.hpp"
#include "obs/obs.hpp"
#include "pipeline/fuzz.hpp"
#include "pipeline/net_generator.hpp"
#include "pipeline/service.hpp"
#include "pipeline/synthesis_pipeline.hpp"
#include "pn/coverability.hpp"
#include "pn/invariants.hpp"
#include "pn/net_class.hpp"
#include "pn/reachability.hpp"
#include "pn/structure.hpp"
#include "pnio/dot.hpp"
#include "pnio/parser.hpp"
#include "pnio/writer.hpp"
#include "qss/report.hpp"
#include "qss/scheduler.hpp"
#include "qss/task_partition.hpp"
#include "qss/valid_schedule.hpp"
#include "svc/server.hpp"

namespace {

using namespace fcqss;

// ------------------------------------------------------------ single-net --

int analyze_net(const pn::petri_net& net)
{
    const pn::net_statistics stats = pn::statistics(net);
    std::printf("net '%s': %zu places, %zu transitions, %zu arcs\n", net.name().c_str(),
                stats.places, stats.transitions, stats.arcs);
    std::printf("  class: %s\n", to_string(pn::classify(net)).c_str());
    std::printf("  choices: %zu, merges: %zu, sources: %zu, sinks: %zu\n", stats.choices,
                stats.merges, stats.source_transitions, stats.sink_transitions);
    std::printf("  consistent: %s, conservative: %s\n",
                pn::is_consistent(net) ? "yes" : "no",
                pn::is_conservative(net) ? "yes" : "no");

    const auto tree = pn::build_coverability_tree(net);
    if (tree.truncated) {
        std::printf("  boundedness: unknown (coverability tree truncated)\n");
    } else {
        std::printf("  bounded under arbitrary firing: %s\n",
                    pn::is_bounded(tree) ? "yes" : "no");
    }

    std::printf("  minimal T-invariants:\n");
    for (const auto& x : pn::t_invariants(net)) {
        std::printf("    (");
        for (std::size_t i = 0; i < x.size(); ++i) {
            std::printf("%s%lld", i ? "," : "", static_cast<long long>(x[i]));
        }
        std::printf(")\n");
    }
    return 0;
}

int schedule_net(const pn::petri_net& net)
{
    const qss::qss_result result = qss::quasi_static_schedule(net);
    if (!result.schedulable) {
        std::printf("NOT quasi-statically schedulable.\n%s\n", result.diagnosis.c_str());
        return pipeline::wire_code(pipeline::pipeline_status::not_schedulable);
    }
    std::printf("quasi-statically schedulable: %zu finite complete cycles\n",
                result.entries.size());
    for (const qss::schedule_entry& entry : result.entries) {
        std::printf("  %s\n", to_string(net, entry.analysis.cycle).c_str());
    }
    const auto violation = qss::check_valid_schedule(net, result.cycles());
    std::printf("Definition 3.1 check: %s\n",
                violation ? violation->describe(net).c_str() : "valid");
    const qss::task_partition partition = qss::partition_tasks(net, result);
    std::printf("tasks: %zu\n", partition.tasks.size());
    for (const qss::task_group& task : partition.tasks) {
        std::printf("  %s (%zu transitions)\n", task.name.c_str(), task.members.size());
    }
    return 0;
}

int codegen_net(const pn::petri_net& net)
{
    const qss::qss_result result = qss::quasi_static_schedule(net);
    if (!result.schedulable) {
        std::fprintf(stderr, "not schedulable: %s\n", result.diagnosis.c_str());
        return pipeline::wire_code(pipeline::pipeline_status::not_schedulable);
    }
    const qss::task_partition partition = qss::partition_tasks(net, result);
    const cgen::generated_program program =
        cgen::generate_program(net, result, partition);
    std::printf("%s", cgen::emit_c(program).c_str());
    return 0;
}

/// Runs one `cmd model.pn` command; failures exit with the status's wire
/// code (so `pn_tool schedule bad.pn; echo $?` and a service "code" field
/// agree about what happened).
int run_single(int argc, char** argv, int (*handler)(const pn::petri_net&))
{
    if (argc != 3) {
        std::fprintf(stderr, "%s takes exactly one model file\n", argv[1]);
        return 2;
    }
    try {
        const pn::petri_net net = pnio::load_net(argv[2]);
        return handler(net);
    } catch (...) {
        std::string diagnosis;
        const pipeline::pipeline_status status =
            pipeline::status_of_current_exception(diagnosis);
        std::fprintf(stderr, "error (%s): %s\n", pipeline::to_string(status),
                     diagnosis.c_str());
        return pipeline::wire_code(status);
    }
}

int cmd_analyze(int argc, char** argv)
{
    return run_single(argc, argv, analyze_net);
}

int cmd_schedule(int argc, char** argv)
{
    return run_single(argc, argv, schedule_net);
}

int cmd_report(int argc, char** argv)
{
    return run_single(argc, argv, [](const pn::petri_net& net) {
        std::printf("%s", qss::synthesis_report(net).c_str());
        return 0;
    });
}

int cmd_codegen(int argc, char** argv)
{
    return run_single(argc, argv, codegen_net);
}

int cmd_dot(int argc, char** argv)
{
    return run_single(argc, argv, [](const pn::petri_net& net) {
        std::printf("%s", pnio::to_dot(net).c_str());
        return 0;
    });
}

// --------------------------------------------------------------- explore --

constexpr cli::enum_choice<pn::reduction_kind> reduce_choices[] = {
    {"none", pn::reduction_kind::none},
    {"stubborn", pn::reduction_kind::deadlock},
};

constexpr cli::enum_choice<pipeline::net_family> family_choices[] = {
    {"fc", pipeline::net_family::free_choice},
    {"mg", pipeline::net_family::marked_graph},
    {"choice", pipeline::net_family::choice_heavy},
    {"client", pipeline::net_family::client_server},
    {"layered", pipeline::net_family::layered_pipeline},
    {"bursty", pipeline::net_family::bursty_multirate},
};

int cmd_explore(int argc, char** argv)
{
    pn::reachability_options options;
    options.threads = 1;
    cli::telemetry_options telemetry;
    std::string path;
    for (int i = 2; i < argc; ++i) {
        long value = 0;
        unsigned long long bytes = 0;
        if (cli::int_option(argc, argv, i, "--threads", value)) {
            options.threads = value >= 0 ? static_cast<std::size_t>(value) : 1;
        } else if (cli::int_option(argc, argv, i, "--max-states", value)) {
            options.max_markings = value > 0 ? static_cast<std::size_t>(value) : 1;
        } else if (cli::int_option(argc, argv, i, "--max-tokens", value)) {
            options.max_tokens_per_place = value > 0 ? value : 1;
        } else if (cli::byte_option(argc, argv, i, "--max-bytes", bytes)) {
            options.max_bytes = static_cast<std::size_t>(bytes);
        } else if (cli::enum_option(argc, argv, i, "--reduce", reduce_choices,
                                     options.reduction)) {
        } else if (telemetry.parse(argv[i])) {
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown explore option '%s'\n", argv[i]);
            return 2;
        } else if (path.empty()) {
            path = argv[i];
        } else {
            std::fprintf(stderr, "explore takes one model file\n");
            return 2;
        }
    }
    if (path.empty()) {
        std::fprintf(stderr, "explore: no input file\n");
        return 2;
    }
    if (const int status = telemetry.enable()) {
        return status;
    }

    const pn::petri_net net = pnio::load_net(path);
    const bool reduced = options.reduction != pn::reduction_kind::none;
    const pn::state_space space = pn::explore_space(net, options);
    std::printf("net '%s': explored %zu states, %zu edges%s%s\n", net.name().c_str(),
                space.state_count(), space.edge_count(),
                reduced ? " (stubborn reduction: deadlock-preserving fragment)" : "",
                space.truncated() ? " (truncated by budget)" : "");
    std::printf("  store: %.2f MiB arena+table\n",
                static_cast<double>(space.store().memory_bytes()) / (1024.0 * 1024.0));
    if (options.max_bytes != 0) {
        std::printf("  spill: %.2f MiB arena under a %.2f MiB resident budget\n",
                    static_cast<double>(space.store().arena_bytes()) /
                        (1024.0 * 1024.0),
                    static_cast<double>(options.max_bytes) / (1024.0 * 1024.0));
    }

    const auto dead = pn::find_deadlock(net, space);
    if (dead) {
        std::printf("  deadlock: state %u reachable via %zu firings\n", *dead,
                    pn::shortest_path_to(space, space.marking_of(*dead))
                        .value_or(pn::firing_sequence{})
                        .size());
    } else {
        std::printf("  deadlock: none%s\n",
                    space.truncated() ? " in the explored region" : "");
    }

    const std::vector<std::int64_t> bounds = pn::place_bounds(space);
    std::int64_t max_bound = 0;
    for (const std::int64_t b : bounds) {
        max_bound = std::max(max_bound, b);
    }
    std::printf("  max tokens in any place: %lld%s\n",
                static_cast<long long>(max_bound),
                reduced ? " (over the reduced fragment only)" : "");
    return telemetry.emit();
}

// ----------------------------------------------------------------- batch --

int cmd_batch(int argc, char** argv)
{
    pipeline::pipeline_options options;
    cli::telemetry_options telemetry;
    bool verbose = false;
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i) {
        long value = 0;
        if (cli::int_option(argc, argv, i, "--jobs", value)) {
            options.jobs = value > 0 ? static_cast<std::size_t>(value) : 0;
        } else if (cli::int_option(argc, argv, i, "--max-allocations", value)) {
            options.scheduler.max_allocations =
                value > 0 ? static_cast<std::size_t>(value) : 1;
        } else if (std::strcmp(argv[i], "--no-codegen") == 0) {
            options.generate_code = false;
        } else if (std::strcmp(argv[i], "--verbose") == 0) {
            verbose = true;
        } else if (telemetry.parse(argv[i])) {
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown batch option '%s'\n", argv[i]);
            return 2;
        } else {
            paths.emplace_back(argv[i]);
        }
    }
    if (paths.empty()) {
        std::fprintf(stderr, "batch: no input files\n");
        return 2;
    }
    if (const int status = telemetry.enable()) {
        return status;
    }

    const pipeline::synthesis_pipeline pipe(options);
    const pipeline::batch_report report = pipe.run_files(paths);

    bool hard_failure = false;
    for (const pipeline::pipeline_result& r : report.results) {
        const bool rejected = r.status != pipeline::pipeline_status::ok;
        if (verbose || rejected) {
            std::printf("%-16s %s", pipeline::to_string(r.status), r.name.c_str());
            if (r.ok()) {
                std::printf("  (%zu cycles, %zu tasks, %d C lines, %.2f ms)",
                            r.cycles, r.tasks, r.code_lines,
                            r.timings.total() / 1000.0);
            } else if (!r.diagnosis.empty()) {
                std::printf("\n    %s", r.diagnosis.c_str());
            }
            std::printf("\n");
        }
        hard_failure = hard_failure ||
                       r.status == pipeline::pipeline_status::load_failed ||
                       r.status == pipeline::pipeline_status::parse_failed ||
                       r.status == pipeline::pipeline_status::invalid_model ||
                       r.status == pipeline::pipeline_status::failed;
    }
    std::printf("%s", report.summary().c_str());
    if (const int status = telemetry.emit()) {
        return status;
    }
    return hard_failure ? 1 : 0;
}

// -------------------------------------------------------------- generate --

int cmd_generate(int argc, char** argv)
{
    long seed = 1;
    long count = 10;
    std::string out_dir;
    pipeline::generator_options options;
    for (int i = 2; i < argc; ++i) {
        long value = 0;
        if (cli::int_option(argc, argv, i, "--seed", value)) {
            seed = value;
        } else if (cli::int_option(argc, argv, i, "--count", value)) {
            count = value;
        } else if (cli::int_option(argc, argv, i, "--sources", value)) {
            options.sources = static_cast<int>(value);
        } else if (cli::int_option(argc, argv, i, "--depth", value)) {
            options.depth = static_cast<int>(value);
        } else if (cli::int_option(argc, argv, i, "--tokens", value)) {
            options.token_load = static_cast<int>(value);
        } else if (cli::int_option(argc, argv, i, "--defects", value)) {
            options.defect_percent = static_cast<int>(value);
        } else if (cli::int_option(argc, argv, i, "--credit", value)) {
            options.source_credit = static_cast<int>(value);
        } else if (cli::enum_option(argc, argv, i, "--family", family_choices,
                                    options.family)) {
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_dir = argv[++i];
        } else {
            std::fprintf(stderr, "unknown generate option '%s'\n", argv[i]);
            return 2;
        }
    }
    if (out_dir.empty() || count <= 0) {
        std::fprintf(stderr, "generate: --out DIR is required and --count must be > 0\n");
        return 2;
    }
    std::filesystem::create_directories(out_dir);
    pipeline::net_generator generator(static_cast<std::uint64_t>(seed), options);
    for (long i = 0; i < count; ++i) {
        const pn::petri_net net = generator.next();
        pnio::save_net(net, out_dir + "/" + net.name() + ".pn");
    }
    std::printf("wrote %ld nets to %s\n", count, out_dir.c_str());
    return 0;
}

// ------------------------------------------------------------------ fuzz --

int cmd_fuzz(int argc, char** argv)
{
    pipeline::fuzz_options options;
    cli::telemetry_options telemetry;
    std::string out_dir = "fuzz-reproducers";
    bool verbose = false;
    for (int i = 2; i < argc; ++i) {
        long value = 0;
        unsigned long long bytes = 0;
        pipeline::net_family family = pipeline::net_family::free_choice;
        if (cli::int_option(argc, argv, i, "--seeds", value)) {
            options.seeds = value > 0 ? static_cast<std::size_t>(value) : 1;
        } else if (cli::int_option(argc, argv, i, "--seed-begin", value)) {
            options.seed_begin = value >= 0 ? static_cast<std::uint64_t>(value) : 1;
        } else if (cli::int_option(argc, argv, i, "--mutations", value)) {
            options.mutation.count = value >= 0 ? static_cast<int>(value) : 0;
        } else if (cli::int_option(argc, argv, i, "--max-states", value)) {
            options.max_states = value > 0 ? static_cast<std::size_t>(value) : 1;
        } else if (cli::byte_option(argc, argv, i, "--max-bytes", bytes)) {
            options.max_bytes = static_cast<std::size_t>(bytes);
        } else if (cli::int_option(argc, argv, i, "--threads", value)) {
            options.threads = value > 1 ? static_cast<std::size_t>(value) : 2;
        } else if (cli::int_option(argc, argv, i, "--max-allocations", value)) {
            options.max_allocations = value > 0 ? static_cast<std::size_t>(value) : 1;
        } else if (cli::enum_option(argc, argv, i, "--family", family_choices,
                                    family)) {
            options.families.push_back(family);
        } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
            options.shrink = false;
        } else if (std::strcmp(argv[i], "--no-synthesis") == 0) {
            options.run_synthesis = false;
        } else if (std::strcmp(argv[i], "--verbose") == 0) {
            verbose = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_dir = argv[++i];
        } else if (telemetry.parse(argv[i])) {
        } else {
            std::fprintf(stderr, "unknown fuzz option '%s'\n", argv[i]);
            return 2;
        }
    }
    if (const int status = telemetry.enable()) {
        return status;
    }

    // Reproducers stream to disk as they are minimized, so even a run
    // killed by a CI timeout leaves its findings behind.
    bool write_failed = false;
    const auto save_finding = [&](const pipeline::fuzz_finding& finding) {
        std::filesystem::create_directories(out_dir);
        const std::string path = out_dir + "/" + finding.net_name + "_seed" +
                                 std::to_string(finding.seed) + ".pn";
        std::fprintf(stderr, "FINDING seed %llu family %s: %s\n  reproducer: %s\n",
                     static_cast<unsigned long long>(finding.seed),
                     pipeline::to_string(finding.family), finding.reason.c_str(),
                     path.c_str());
        write_failed = cli::write_text_file(path, finding.reproducer) != 0 ||
                       write_failed;
    };

    const pipeline::fuzz_report report = pipeline::run_fuzz(options, save_finding);
    if (verbose || !report.clean()) {
        for (const pipeline::fuzz_finding& finding : report.findings) {
            std::printf("disagreement at seed %llu (%s, %zu mutations, %zu shrink "
                        "steps): %s\n",
                        static_cast<unsigned long long>(finding.seed),
                        pipeline::to_string(finding.family),
                        finding.mutations_applied, finding.shrink_steps,
                        finding.reason.c_str());
        }
    }
    std::printf("fuzz: %zu mutants, %zu matrix runs, %zu disagreements\n",
                report.mutants, report.matrix_runs, report.findings.size());
    if (const int status = telemetry.emit()) {
        return status;
    }
    return report.clean() && !write_failed ? 0 : 1;
}

// ----------------------------------------------------------------- serve --

int cmd_serve(int argc, char** argv)
{
    pipeline::service_options options;
    svc::server_options server;
    cli::telemetry_options telemetry;
    long tcp_port = -1;
    for (int i = 2; i < argc; ++i) {
        long value = 0;
        unsigned long long bytes = 0;
        if (cli::int_option(argc, argv, i, "--jobs", value)) {
            options.jobs = value > 0 ? static_cast<std::size_t>(value) : 0;
        } else if (cli::int_option(argc, argv, i, "--queue", value)) {
            options.max_queue = value > 0 ? static_cast<std::size_t>(value) : 1;
        } else if (cli::int_option(argc, argv, i, "--cache", value)) {
            options.result_cache = value >= 0 ? static_cast<std::size_t>(value) : 0;
        } else if (cli::int_option(argc, argv, i, "--max-allocations", value)) {
            options.pipeline.scheduler.max_allocations =
                value > 0 ? static_cast<std::size_t>(value) : 1;
        } else if (cli::int_option(argc, argv, i, "--max-input-bytes", value)) {
            options.pipeline.limits.max_input_bytes =
                value > 0 ? static_cast<std::size_t>(value) : 1;
            server.max_line_bytes =
                std::max(server.max_line_bytes,
                         2 * options.pipeline.limits.max_input_bytes);
        } else if (std::strcmp(argv[i], "--no-codegen") == 0) {
            options.pipeline.generate_code = false;
        } else if (std::strcmp(argv[i], "--no-code") == 0) {
            server.session.include_code = false;
        } else if (cli::byte_option(argc, argv, i, "--max-bytes", bytes)) {
            server.session.explore.max_bytes = static_cast<std::size_t>(bytes);
        } else if (cli::int_option(argc, argv, i, "--tcp", value)) {
            tcp_port = value;
        } else if (telemetry.parse(argv[i])) {
        } else {
            std::fprintf(stderr, "unknown serve option '%s'\n", argv[i]);
            return 2;
        }
    }
    if (const int status = telemetry.enable()) {
        return status;
    }

    pipeline::service service(options);
    int exit_code = 0;
    if (tcp_port >= 0) {
        unsigned short bound = 0;
        std::fprintf(stderr, "pn_tool serve: %zu workers, queue %zu\n",
                     service.jobs(), service.options().max_queue);
        exit_code = svc::serve_tcp(service, static_cast<unsigned short>(tcp_port),
                                   server, &bound);
        if (exit_code == 0) {
            std::fprintf(stderr, "pn_tool serve: stopped (port %u)\n", bound);
        } else {
            std::fprintf(stderr, "pn_tool serve: cannot listen on 127.0.0.1:%ld\n",
                         tcp_port);
        }
    } else {
        exit_code = svc::serve_stdio(service, STDIN_FILENO, STDOUT_FILENO, server);
    }
    service.drain();

    if (const int status = telemetry.emit()) {
        return status;
    }
    return exit_code;
}

// -------------------------------------------------------------- registry --

constexpr cli::command commands[] = {
    {"analyze", "model.pn", cmd_analyze},
    {"schedule", "model.pn", cmd_schedule},
    {"report", "model.pn", cmd_report},
    {"codegen", "model.pn", cmd_codegen},
    {"dot", "model.pn", cmd_dot},
    {"explore",
     "[--threads N] [--max-states S] [--max-tokens K] [--max-bytes B]\n"
     "                  [--reduce none|stubborn]\n"
     "                  [--stats[=FILE]] [--trace=FILE] model.pn",
     cmd_explore},
    {"batch",
     "[--jobs N] [--max-allocations A] [--no-codegen] [--verbose]\n"
     "                  [--stats[=FILE]] [--trace=FILE] model.pn...",
     cmd_batch},
    {"generate",
     "[--seed S] [--count N] [--family fc|mg|choice|client|layered|bursty]\n"
     "                  [--sources K] [--depth D] [--tokens L] [--defects P] "
     "[--credit C]\n"
     "                  --out DIR",
     cmd_generate},
    {"fuzz",
     "[--seeds N] [--seed-begin S] [--family F]... [--mutations M]\n"
     "                  [--max-states S] [--max-bytes B] [--threads N] "
     "[--max-allocations A]\n"
     "                  [--no-shrink] [--no-synthesis] [--verbose] [--out DIR]\n"
     "                  [--stats[=FILE]] [--trace=FILE]",
     cmd_fuzz},
    {"serve",
     "[--jobs N] [--queue N] [--cache N] [--max-allocations A]\n"
     "                  [--no-codegen] [--no-code] [--max-input-bytes B] "
     "[--max-bytes B]\n"
     "                  [--tcp PORT]\n"
     "                  [--stats[=FILE]] [--trace=FILE]",
     cmd_serve},
};

} // namespace

int main(int argc, char** argv)
{
    return cli::dispatch("pn_tool", commands, std::size(commands), argc, argv);
}
