#include "staged.hpp"

#include <algorithm>

#include "codegen/c_emitter.hpp"
#include "codegen/task_codegen.hpp"
#include "pn/firing.hpp"
#include "pn/invariants.hpp"
#include "pn/net_class.hpp"
#include "pn/structure.hpp"
#include "pnio/parser.hpp"
#include "qss/schedulability.hpp"
#include "qss/task_partition.hpp"
#include "qss/valid_schedule.hpp"

namespace perfbench {

namespace fp = fcqss::pipeline;
namespace pn = fcqss::pn;
namespace qss = fcqss::qss;

std::string describe(const net_verdict& v)
{
    return std::string(fp::to_string(v.status)) + " cycles " + std::to_string(v.cycles) +
           " C bytes " + std::to_string(v.code_bytes);
}

net_verdict verdict_of(const fp::pipeline_result& r)
{
    return {r.status, r.cycles, r.code_bytes};
}

staged_result run_staged(tracer& spans, std::uint64_t request, const std::string& text)
{
    staged_result out;
    const tracer::scope whole(spans, "net", request);
    try {
        {
            const tracer::scope span(spans, "pnio.parse_net", request);
            out.net = fcqss::pnio::parse_net(text);
        }
        const pn::petri_net& net = *out.net;
        bool in_class = false;
        {
            const tracer::scope span(spans, "pn.classify", request);
            static_cast<void>(pn::classify(net));
            static_cast<void>(pn::statistics(net));
            in_class = pn::is_free_choice(net) && pn::is_equal_conflict_free_choice(net);
        }
        if (!in_class) {
            out.verdict.status = fp::pipeline_status::not_free_choice;
            return out;
        }
        {
            const tracer::scope span(spans, "pn.is_consistent", request);
            static_cast<void>(pn::is_consistent(net));
        }
        {
            const tracer::scope span(spans, "qss.quasi_static_schedule", request);
            out.schedule = qss::quasi_static_schedule(net);
        }
        const qss::qss_result& schedule = *out.schedule;
        out.allocations = schedule.allocations_enumerated;
        out.verdict.cycles = schedule.entries.size();
        if (!schedule.schedulable) {
            out.verdict.status = fp::pipeline_status::not_schedulable;
            return out;
        }
        std::optional<qss::task_partition> partition;
        {
            const tracer::scope span(spans, "qss.partition_tasks", request);
            partition = qss::partition_tasks(net, schedule);
        }
        out.tasks = partition->tasks.size();
        std::optional<fcqss::cgen::generated_program> program;
        {
            const tracer::scope span(spans, "cgen.generate_program", request);
            program = fcqss::cgen::generate_program(net, schedule, *partition);
        }
        {
            const tracer::scope span(spans, "cgen.emit_c", request);
            out.verdict.code_bytes = fcqss::cgen::emit_c(*program).size();
        }
        out.verdict.status = fp::pipeline_status::ok;
    } catch (...) {
        std::string diagnosis;
        out.verdict.status = fp::status_of_current_exception(diagnosis);
    }
    return out;
}

schedule_check check_staged(tracer& spans, std::uint64_t request, const staged_result& staged)
{
    if (staged.verdict.status != fp::pipeline_status::ok) {
        return {};
    }
    const pn::petri_net& net = *staged.net;
    const qss::qss_result& schedule = *staged.schedule;
    {
        const tracer::scope span(spans, "qss.check", request);
        for (const qss::schedule_entry& entry : schedule.entries) {
            static_cast<void>(qss::schedule_reduction(net, schedule.clusters, entry.reduction));
        }
    }
    const std::vector<pn::firing_sequence> cycles = schedule.cycles();
    const std::vector<pn::transition_id> sources = pn::source_transitions(net);
    for (std::size_t i = 0; i < cycles.size(); ++i) {
        if (!pn::is_finite_complete_cycle(net, cycles[i])) {
            return {"cycle " + std::to_string(i) + " is not a finite complete cycle", false};
        }
        for (const pn::transition_id source : sources) {
            if (std::find(cycles[i].begin(), cycles[i].end(), source) == cycles[i].end()) {
                return {"cycle " + std::to_string(i) + " misses source " +
                            net.transition_name(source),
                        false};
            }
        }
    }
    const auto violation = qss::check_valid_schedule(net, cycles);
    if (!violation) {
        return {};
    }
    if (violation->reason == qss::validity_violation::kind::missing_alternative) {
        return {{}, true};
    }
    return {violation->describe(net), false};
}

void layer_metrics(const tracer& spans, const std::vector<staged_result>& staged,
                   std::size_t text_bytes, std::map<std::string, double>& m)
{
    double allocations = 0;
    double reductions = 0;
    double tasks = 0;
    double c_bytes = 0;
    double ok = 0;
    double resource_limits = 0;
    for (const staged_result& r : staged) {
        allocations += static_cast<double>(r.allocations);
        reductions += static_cast<double>(r.verdict.cycles);
        tasks += static_cast<double>(r.tasks);
        c_bytes += static_cast<double>(r.verdict.code_bytes);
        ok += r.verdict.status == fp::pipeline_status::ok;
        resource_limits += r.verdict.status == fp::pipeline_status::resource_limit;
    }
    const double parse_ms = spans.total_ms("pnio.parse_net");
    m["pnio.parse_ms"] = parse_ms;
    m["pnio.parse_mb_per_s"] =
        parse_ms > 0 ? static_cast<double>(text_bytes) / 1e6 / (parse_ms / 1000.0) : 0;
    m["pn.classify_ms"] = spans.total_ms("pn.classify");
    m["pn.structural_ms"] = spans.total_ms("pn.is_consistent");
    const std::vector<double> schedule_each = spans.durations_ms("qss.quasi_static_schedule");
    double schedule_ms = 0;
    for (const double ms : schedule_each) {
        schedule_ms += ms;
    }
    m["qss.schedule_ms"] = schedule_ms;
    m["qss.check_ms"] = spans.total_ms("qss.check");
    m["qss.enum_reduce_ms"] = schedule_ms - m["qss.check_ms"];
    m["qss.allocations"] = allocations;
    m["qss.reductions"] = reductions;
    m["qss.useful_ratio"] = allocations > 0 ? reductions / allocations : 0;
    m["qss.slowest_net_ms"] =
        schedule_each.empty() ? 0 : *std::max_element(schedule_each.begin(), schedule_each.end());
    m["qss.resource_limits"] = resource_limits;
    m["qss.partition_ms"] = spans.total_ms("qss.partition_tasks");
    m["qss.tasks"] = tasks;
    m["codegen.generate_ms"] = spans.total_ms("cgen.generate_program");
    m["codegen.emit_ms"] = spans.total_ms("cgen.emit_c");
    m["codegen.c_bytes"] = c_bytes;
    m["codegen.c_bytes_per_net"] = ok > 0 ? c_bytes / ok : 0;
    m["pipeline.decided_ratio"] =
        staged.empty() ? 0 : 1.0 - resource_limits / static_cast<double>(staged.size());
}

} // namespace perfbench
