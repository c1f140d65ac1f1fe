#include "pipeline/synthesis_pipeline.hpp"

#include <chrono>
#include <cstdio>
#include <optional>
#include <utility>

#include <array>

#include "base/error.hpp"
#include "base/strings.hpp"
#include "codegen/c_emitter.hpp"
#include "exec/executor.hpp"
#include "obs/obs.hpp"
#include "pn/structure.hpp"
#include "pnio/parser.hpp"
#include "qss/task_partition.hpp"

namespace fcqss::pipeline {

const char* to_string(pipeline_status status)
{
    switch (status) {
    case pipeline_status::ok:
        return "ok";
    case pipeline_status::load_failed:
        return "load-failed";
    case pipeline_status::parse_failed:
        return "parse-failed";
    case pipeline_status::invalid_model:
        return "invalid-model";
    case pipeline_status::not_free_choice:
        return "not-free-choice";
    case pipeline_status::not_schedulable:
        return "not-schedulable";
    case pipeline_status::resource_limit:
        return "resource-limit";
    case pipeline_status::failed:
        return "failed";
    }
    return "?";
}

std::optional<pipeline_status> parse_pipeline_status(std::string_view spelling) noexcept
{
    static constexpr pipeline_status all[] = {
        pipeline_status::ok,           pipeline_status::load_failed,
        pipeline_status::parse_failed, pipeline_status::invalid_model,
        pipeline_status::not_free_choice, pipeline_status::not_schedulable,
        pipeline_status::resource_limit, pipeline_status::failed,
    };
    for (const pipeline_status s : all) {
        if (spelling == to_string(s)) {
            return s;
        }
    }
    return std::nullopt;
}

int wire_code(pipeline_status status) noexcept
{
    // Append-only: these numbers are CLI exit codes and protocol fields.
    // 1 and 2 stay reserved (generic error / usage error).
    switch (status) {
    case pipeline_status::ok: return 0;
    case pipeline_status::load_failed: return 3;
    case pipeline_status::parse_failed: return 4;
    case pipeline_status::invalid_model: return 5;
    case pipeline_status::not_free_choice: return 6;
    case pipeline_status::not_schedulable: return 7;
    case pipeline_status::resource_limit: return 8;
    case pipeline_status::failed: return 9;
    }
    return 9;
}

std::optional<pipeline_status> status_from_wire(int code) noexcept
{
    switch (code) {
    case 0: return pipeline_status::ok;
    case 3: return pipeline_status::load_failed;
    case 4: return pipeline_status::parse_failed;
    case 5: return pipeline_status::invalid_model;
    case 6: return pipeline_status::not_free_choice;
    case 7: return pipeline_status::not_schedulable;
    case 8: return pipeline_status::resource_limit;
    case 9: return pipeline_status::failed;
    default: return std::nullopt;
    }
}

pipeline_status status_of_current_exception(std::string& diagnosis)
{
    try {
        throw;
    } catch (const parse_error& e) {
        diagnosis = e.what();
        return pipeline_status::parse_failed;
    } catch (const model_error& e) {
        diagnosis = e.what();
        return pipeline_status::invalid_model;
    } catch (const domain_error& e) {
        // The scheduler's own class check tripped (shouldn't happen after
        // classify, but a stage must never leak exceptions into the batch).
        diagnosis = e.what();
        return pipeline_status::not_free_choice;
    } catch (const io_error& e) {
        diagnosis = e.what();
        return pipeline_status::load_failed;
    } catch (const resource_limit_error& e) {
        diagnosis = e.what();
        return pipeline_status::resource_limit;
    } catch (const std::exception& e) {
        diagnosis = e.what();
        return pipeline_status::failed;
    } catch (...) {
        diagnosis = "unknown exception";
        return pipeline_status::failed;
    }
}

const char* to_string(pipeline_stage stage)
{
    switch (stage) {
    case pipeline_stage::parse:
        return "parse";
    case pipeline_stage::classify:
        return "classify";
    case pipeline_stage::structural:
        return "structural";
    case pipeline_stage::schedule:
        return "schedule";
    case pipeline_stage::partition:
        return "partition";
    case pipeline_stage::codegen:
        return "codegen";
    }
    return "?";
}

net_source net_source::from_text(std::string name, std::string text)
{
    net_source source;
    source.name = std::move(name);
    source.text = std::make_shared<const std::string>(std::move(text));
    return source;
}

net_source net_source::from_file(std::string path)
{
    net_source source;
    source.name = path;
    source.text = std::make_shared<const std::string>(std::move(path));
    source.is_path = true;
    return source;
}

net_source net_source::from_net(pn::petri_net net)
{
    net_source source;
    source.name = net.name();
    source.prebuilt = std::make_shared<const pn::petri_net>(std::move(net));
    return source;
}

pn::petri_net net_source::parse(const pnio::parse_limits& limits) const
{
    static const std::string empty;
    const std::string& content = text ? *text : empty;
    return is_path ? pnio::load_net(content, limits) : pnio::parse_net(content, limits);
}

double stage_timings::total() const
{
    double sum = 0;
    for (const double m : micros) {
        sum += m;
    }
    return sum;
}

std::size_t batch_report::count(pipeline_status status) const
{
    std::size_t n = 0;
    for (const pipeline_result& r : results) {
        if (r.status == status) {
            ++n;
        }
    }
    return n;
}

double batch_report::nets_per_second() const
{
    if (wall_micros <= 0) {
        return 0;
    }
    return static_cast<double>(results.size()) / (wall_micros * 1e-6);
}

double batch_report::stage_micros(pipeline_stage stage) const
{
    double sum = 0;
    for (const pipeline_result& r : results) {
        sum += r.timings[stage];
    }
    return sum;
}

std::string batch_report::summary() const
{
    char line[256];
    std::string out;
    std::snprintf(line, sizeof line,
                  "batch: %zu nets, %zu jobs, %.1f ms wall, %.1f nets/sec\n",
                  results.size(), jobs, wall_micros / 1000.0, nets_per_second());
    out += line;
    static constexpr pipeline_status kStatuses[] = {
        pipeline_status::ok,           pipeline_status::load_failed,
        pipeline_status::parse_failed, pipeline_status::invalid_model,
        pipeline_status::not_free_choice, pipeline_status::not_schedulable,
        pipeline_status::resource_limit, pipeline_status::failed,
    };
    for (const pipeline_status s : kStatuses) {
        if (const std::size_t n = count(s)) {
            std::snprintf(line, sizeof line, "  %-16s %zu\n", to_string(s), n);
            out += line;
        }
    }
    for (std::size_t i = 0; i < stage_count; ++i) {
        const auto stage = static_cast<pipeline_stage>(i);
        if (const double micros = stage_micros(stage); micros > 0) {
            std::snprintf(line, sizeof line, "  stage %-10s %.1f ms\n",
                          to_string(stage), micros / 1000.0);
            out += line;
        }
    }
    return out;
}

namespace {

using clock = std::chrono::steady_clock;

/// Span names must be string literals (obs stores the pointer).
const char* stage_span_name(pipeline_stage stage)
{
    switch (stage) {
    case pipeline_stage::parse:
        return "stage.parse";
    case pipeline_stage::classify:
        return "stage.classify";
    case pipeline_stage::structural:
        return "stage.structural";
    case pipeline_stage::schedule:
        return "stage.schedule";
    case pipeline_stage::partition:
        return "stage.partition";
    case pipeline_stage::codegen:
        return "stage.codegen";
    }
    return "stage.?";
}

/// Cumulative per-stage obs counters, resolved once (thread-safe static
/// init) so every stage_timer destruction is one guarded add.
obs::counter& stage_counter(pipeline_stage stage)
{
    static const std::array<obs::counter*, stage_count> counters = [] {
        std::array<obs::counter*, stage_count> resolved{};
        for (std::size_t i = 0; i < stage_count; ++i) {
            resolved[i] = &obs::get_counter(
                std::string("pipeline.stage.") +
                    to_string(static_cast<pipeline_stage>(i)) + ".micros",
                "us");
        }
        return resolved;
    }();
    return *counters[static_cast<std::size_t>(stage)];
}

/// Charges elapsed wall time to one stage of a result, including when the
/// stage exits by throwing — a batch full of malformed inputs must still
/// attribute its time to the parse stage.  The same interval feeds the
/// result's timings (API, always), the pipeline.stage.* counters (stats) and
/// one trace span (tracing), so all three sinks agree per stage.
class stage_timer {
public:
    stage_timer(pipeline_result& result, pipeline_stage stage)
        : result_(result), stage_(stage), span_(stage_span_name(stage)),
          start_(clock::now())
    {
    }

    ~stage_timer()
    {
        const double micros =
            std::chrono::duration<double, std::micro>(clock::now() - start_).count();
        result_.timings.micros[static_cast<std::size_t>(stage_)] += micros;
        if (obs::stats_enabled()) {
            stage_counter(stage_).add(
                micros > 0 ? static_cast<std::uint64_t>(micros) : 0);
        }
    }

private:
    pipeline_result& result_;
    pipeline_stage stage_;
    obs::span span_;
    clock::time_point start_;
};

/// Runs `body` and charges its wall time (normal or throwing) to `stage`.
template <typename Fn>
auto timed(pipeline_result& result, pipeline_stage stage, Fn&& body)
{
    const stage_timer timer(result, stage);
    return body();
}

} // namespace

synthesis_pipeline::synthesis_pipeline(pipeline_options options)
    : options_(std::move(options))
{
}

pipeline_result synthesis_pipeline::run_one(const net_source& source,
                                            const stage_observer& observer) const
{
    pipeline_result result;
    result.name = source.name;
    const auto report = [&](pipeline_stage stage) {
        if (observer) {
            observer(stage, result);
        }
    };
    try {
        // -- parse ----------------------------------------------------------
        std::optional<pn::petri_net> parsed;
        if (!source.prebuilt) {
            parsed = timed(result, pipeline_stage::parse,
                           [&] { return source.parse(options_.limits); });
            report(pipeline_stage::parse);
        }
        const pn::petri_net& net = source.prebuilt ? *source.prebuilt : *parsed;
        if (result.name.empty()) {
            result.name = net.name();
        }

        // -- classify -------------------------------------------------------
        const bool in_class = timed(result, pipeline_stage::classify, [&] {
            result.klass = pn::classify(net);
            const pn::net_statistics stats = pn::statistics(net);
            result.places = stats.places;
            result.transitions = stats.transitions;
            result.arcs = stats.arcs;
            if (!pn::is_free_choice(net)) {
                result.diagnosis = pn::describe_free_choice_violation(net);
                return false;
            }
            if (!pn::is_equal_conflict_free_choice(net)) {
                result.diagnosis = "free-choice but not equal-conflict: consumers "
                                   "of some choice place differ in weight";
                return false;
            }
            return true;
        });
        if (!in_class) {
            result.status = pipeline_status::not_free_choice;
            report(pipeline_stage::classify);
            return result;
        }
        report(pipeline_stage::classify);

        // -- structural -----------------------------------------------------
        const qss::net_analysis analysis = timed(result, pipeline_stage::structural, [&] {
            qss::net_analysis computed = qss::analyze_net(net);
            result.consistent = computed.consistent();
            return computed;
        });
        report(pipeline_stage::structural);

        // -- schedule -------------------------------------------------------
        const qss::qss_result schedule = timed(result, pipeline_stage::schedule, [&] {
            return qss::quasi_static_schedule(net, analysis, options_.scheduler);
        });
        result.allocations = schedule.allocations_enumerated;
        result.cycles = schedule.entries.size();
        result.qss_failure = schedule.failure;
        if (!schedule.schedulable) {
            result.diagnosis = schedule.diagnosis;
            result.status = pipeline_status::not_schedulable;
            report(pipeline_stage::schedule);
            return result;
        }
        report(pipeline_stage::schedule);

        // -- partition ------------------------------------------------------
        const qss::task_partition partition =
            timed(result, pipeline_stage::partition,
                  [&] { return qss::partition_tasks(net, schedule); });
        result.tasks = partition.tasks.size();
        report(pipeline_stage::partition);

        // -- codegen --------------------------------------------------------
        if (options_.generate_code) {
            timed(result, pipeline_stage::codegen, [&] {
                const cgen::generated_program program =
                    cgen::generate_program(net, schedule, partition, options_.codegen);
                std::string code = cgen::emit_c(program);
                result.code_bytes = code.size();
                result.code_lines = count_nonblank_lines(code);
                if (options_.keep_code) {
                    result.code = std::move(code);
                }
            });
            report(pipeline_stage::codegen);
        }
        result.status = pipeline_status::ok;
        return result;
    } catch (...) {
        result.status = status_of_current_exception(result.diagnosis);
    }
    return result;
}

batch_report synthesis_pipeline::run(const std::vector<net_source>& sources) const
{
    obs::span batch_span("pipeline.batch", "nets",
                         static_cast<std::int64_t>(sources.size()));
    batch_report report;
    report.results.resize(sources.size());

    exec::executor pool(options_.jobs);
    report.jobs = pool.jobs();

    const auto start = clock::now();
    pool.for_each_index(sources.size(), [&](std::size_t i) {
        pipeline_result result = run_one(sources[i]);
        result.index = i;
        report.results[i] = std::move(result);
    });
    report.wall_micros =
        std::chrono::duration<double, std::micro>(clock::now() - start).count();
    if (obs::stats_enabled()) {
        obs::get_counter("pipeline.nets").add(report.results.size());
        obs::get_counter("pipeline.ok").add(report.count(pipeline_status::ok));
    }
    batch_span.arg("ok", static_cast<std::int64_t>(report.count(pipeline_status::ok)));
    return report;
}

batch_report synthesis_pipeline::run_files(const std::vector<std::string>& paths) const
{
    std::vector<net_source> sources;
    sources.reserve(paths.size());
    for (const std::string& path : paths) {
        sources.push_back(net_source::from_file(path));
    }
    return run(sources);
}

} // namespace fcqss::pipeline
