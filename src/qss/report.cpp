#include "qss/report.hpp"

#include "pn/firing.hpp"
#include "pn/net_class.hpp"
#include "pn/structure.hpp"
#include "qss/executability.hpp"
#include "qss/task_partition.hpp"
#include "qss/tradeoff.hpp"
#include "qss/valid_schedule.hpp"

namespace fcqss::qss {

namespace {

/// Finite complete cycles the report lists.
constexpr std::size_t cycle_preview = 4;

} // namespace

std::string synthesis_report(const pn::petri_net& net)
{
    std::string out;
    const auto line = [&out](const std::string& text) {
        out += text;
        out += '\n';
    };

    const pn::net_statistics stats = pn::statistics(net);
    line("=== quasi-static synthesis report: " + net.name() + " ===");
    line("model: " + to_string(pn::classify(net)) + ", " + std::to_string(stats.places) +
         " places, " + std::to_string(stats.transitions) + " transitions, " +
         std::to_string(stats.arcs) + " arcs");
    line("structure: " + std::to_string(stats.choices) + " choices, " +
         std::to_string(stats.merges) + " merges, " +
         std::to_string(stats.source_transitions) + " sources, " +
         std::to_string(stats.sink_transitions) + " sinks");

    const qss_result result = quasi_static_schedule(net);
    line("allocations enumerated: " + std::to_string(result.allocations_enumerated) +
         "; distinct T-reductions: " + std::to_string(result.entries.size()));

    if (!result.schedulable) {
        line("VERDICT: NOT quasi-statically schedulable");
        line("diagnosis: " + result.diagnosis);
        line("no implementation of this specification can run forever in "
             "bounded memory (Theorem 3.1).");
        return out;
    }
    line("VERDICT: schedulable");

    const std::size_t shown = std::min(cycle_preview, result.entries.size());
    line("valid schedule (" + std::to_string(result.entries.size()) +
         " finite complete cycles" +
         (shown < result.entries.size()
              ? ", showing " + std::to_string(shown)
              : "") +
         "):");
    for (std::size_t i = 0; i < shown; ++i) {
        line("  " + to_string(net, result.entries[i].analysis.cycle));
    }

    const auto violation = check_valid_schedule(net, result.cycles());
    line("Definition 3.1 validity: " +
         (violation ? "VIOLATED — " + violation->describe(net) : std::string("ok")));

    const auto failure = check_executability(net, result);
    line("executability (footnote 2): " +
         (failure ? "BLOCKS — " + failure->context : std::string("ok")));

    const task_partition partition = partition_tasks(net, result);
    line("tasks (" + std::to_string(partition.tasks.size()) + "):");
    for (const task_group& task : partition.tasks) {
        std::string sources;
        for (pn::transition_id s : task.sources) {
            sources += " " + net.transition_name(s);
        }
        line("  " + task.name + ":" + (sources.empty() ? " (autonomous)" : sources) +
             ", " + std::to_string(task.members.size()) + " transitions");
    }

    const auto bounds = schedule_buffer_bounds(net, result);
    std::int64_t total = 0;
    std::int64_t worst = 0;
    for (std::int64_t b : bounds) {
        total += b;
        worst = std::max(worst, b);
    }
    line("buffer bounds under the schedule: " + std::to_string(total) +
         " tokens total, worst single place " + std::to_string(worst));
    return out;
}

} // namespace fcqss::qss
