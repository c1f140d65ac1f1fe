// fcqss — pipeline/synthesis_pipeline.hpp
// Batch orchestration of the whole synthesis flow.  One net runs through the
// staged pipeline
//
//   parse -> classify (net_class) -> structural (qss::analyze_net)
//         -> schedule (qss) -> partition (tasks) -> codegen (C)
//
// and produces a pipeline_result: final status, per-stage wall times, the
// diagnosis for rejected nets, and size metrics for generated code.  Stages
// short-circuit: a net that fails to parse never reaches classify, a
// non-free-choice net never reaches the scheduler, an unschedulable net
// carries the qss_result diagnosis instead of code.  run() drives a whole
// vector of sources through a fixed-size thread pool (exec::executor);
// every net is processed independently and failures are confined to their
// own result, so one bad net never poisons the batch and per-net statuses
// are identical no matter how many worker threads ran.  The structural stage
// runs the net's one Farkas enumeration (qss::analyze_net); its analysis
// gives the consistency flag and is handed to the schedule stage, which
// checks every T-reduction against it.
#ifndef FCQSS_PIPELINE_SYNTHESIS_PIPELINE_HPP
#define FCQSS_PIPELINE_SYNTHESIS_PIPELINE_HPP

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "codegen/task_codegen.hpp"
#include "pn/net_class.hpp"
#include "pn/petri_net.hpp"
#include "pnio/lexer.hpp"
#include "qss/scheduler.hpp"

namespace fcqss::pipeline {

/// Final disposition of one net.
enum class pipeline_status {
    ok,              ///< synthesized end to end
    load_failed,     ///< file could not be read
    parse_failed,    ///< `.pn` text was syntactically invalid
    invalid_model,   ///< parsed but structurally malformed
    not_free_choice, ///< outside the class the QSS algorithm accepts
    not_schedulable, ///< in class, but no valid schedule exists
    resource_limit,  ///< a configured bound (allocation cap, ...) was hit
    failed,          ///< unexpected internal error (isolated to this net)
};

[[nodiscard]] const char* to_string(pipeline_status status);

/// Inverse of to_string; nullopt for unknown spellings.  Together with
/// wire_code / status_from_wire this makes the status a stable wire type:
/// both the textual and the numeric form round-trip, and tests pin the
/// mapping so neither can silently drift.
[[nodiscard]] std::optional<pipeline_status>
parse_pipeline_status(std::string_view spelling) noexcept;

/// Stable numeric wire code of a status.  Used identically as the CLI exit
/// code of single-net commands and as the "code" field of service replies.
/// 0 is success; 1 (generic error) and 2 (usage error) stay reserved for
/// the CLI; the mapping is append-only and never renumbered.
[[nodiscard]] int wire_code(pipeline_status status) noexcept;

/// Inverse of wire_code; nullopt for unassigned codes.
[[nodiscard]] std::optional<pipeline_status> status_from_wire(int code) noexcept;

/// Maps the in-flight exception to the status run_one would record for it,
/// appending its message to `diagnosis`.  Exposed so other entry points
/// that run pipeline work (the resident service parsing client bytes)
/// classify failures exactly like the batch path.  Must be called from
/// within a catch block.
[[nodiscard]] pipeline_status status_of_current_exception(std::string& diagnosis);

/// Pipeline stages, in execution order (indices into stage timings).
enum class pipeline_stage { parse, classify, structural, schedule, partition, codegen };

inline constexpr std::size_t stage_count = 6;

[[nodiscard]] const char* to_string(pipeline_stage stage);

/// One unit of batch input: a named `.pn` text, a file path, or an already
/// built net (the generator path — no parsing involved).  Copies share the
/// text and the net, so fanning one source out to many requests costs a
/// reference count each, not a copy of the text.
struct net_source {
    std::string name;
    /// The `.pn` text, or the file path when is_path.
    std::shared_ptr<const std::string> text;
    bool is_path = false;
    std::shared_ptr<const pn::petri_net> prebuilt;

    [[nodiscard]] static net_source from_text(std::string name, std::string text);
    [[nodiscard]] static net_source from_file(std::string path);
    [[nodiscard]] static net_source from_net(pn::petri_net net);

    /// Parses the text, or loads the file when is_path (not for prebuilt
    /// sources).  Throws what pnio::parse_net / pnio::load_net throw.
    [[nodiscard]] pn::petri_net parse(const pnio::parse_limits& limits) const;
};

/// Per-stage wall-clock times; a stage that never ran stays at 0.
struct stage_timings {
    std::array<double, stage_count> micros{};

    [[nodiscard]] double operator[](pipeline_stage s) const
    {
        return micros[static_cast<std::size_t>(s)];
    }
    [[nodiscard]] double total() const;
};

/// Everything the pipeline learned about one net.
struct pipeline_result {
    std::size_t index = 0; ///< position in the input batch
    std::string name;
    pipeline_status status = pipeline_status::failed;
    /// Why the net stopped short of `ok` (free-choice violation, the
    /// qss_result diagnosis, the exception message, ...).  Empty on success.
    std::string diagnosis;

    // Classify / structural facts (valid once those stages ran).
    pn::net_class klass = pn::net_class::general;
    std::size_t places = 0;
    std::size_t transitions = 0;
    std::size_t arcs = 0;
    bool consistent = false;

    // Scheduling facts.
    std::size_t allocations = 0;
    std::size_t cycles = 0;
    std::size_t tasks = 0;
    /// Machine-readable rejection class when status == not_schedulable
    /// (reduction_failure::none otherwise); wire_code(qss_failure) rides the
    /// service protocol next to the human-readable diagnosis.
    qss::reduction_failure qss_failure = qss::reduction_failure::none;

    // Codegen facts.
    std::size_t code_bytes = 0;
    int code_lines = 0;
    /// The emitted C, retained only when pipeline_options::keep_code.
    std::string code;

    stage_timings timings;

    [[nodiscard]] bool ok() const { return status == pipeline_status::ok; }
};

/// Aggregate of one run() call.
struct batch_report {
    std::vector<pipeline_result> results; ///< in input order
    std::size_t jobs = 1;                 ///< worker threads used
    double wall_micros = 0;               ///< end-to-end batch wall time

    [[nodiscard]] std::size_t count(pipeline_status status) const;
    [[nodiscard]] double nets_per_second() const;
    /// Sum of a stage's time across all nets (CPU time, not wall time).
    [[nodiscard]] double stage_micros(pipeline_stage stage) const;
    /// Human-readable multi-line summary.
    [[nodiscard]] std::string summary() const;
};

struct pipeline_options {
    /// Worker threads; 0 picks std::thread::hardware_concurrency().
    std::size_t jobs = 0;
    /// Stop after the schedule/partition stages instead of emitting C.
    bool generate_code = true;
    /// Retain the emitted C text in each result (memory-heavy on batches).
    bool keep_code = false;
    /// Bounds on parsed text inputs; trips become status resource_limit.
    pnio::parse_limits limits{};
    qss::scheduler_options scheduler{};
    cgen::codegen_options codegen{};
};

/// Per-stage progress callback: invoked after each stage completes (in
/// stage order, on the thread running the net) with the result so far.
/// `partial` is only valid for the duration of the call.  Stages that
/// reject their net (classify, schedule) still report before the run
/// stops with the status already set; a stage that throws reports
/// nothing — the failure arrives in the final result only.  This is how
/// the service streams the structural verdict long before codegen lands.
using stage_observer =
    std::function<void(pipeline_stage stage, const pipeline_result& partial)>;

class synthesis_pipeline {
public:
    explicit synthesis_pipeline(pipeline_options options = {});

    [[nodiscard]] const pipeline_options& options() const noexcept { return options_; }

    /// Runs one source through every stage on the calling thread.  Never
    /// throws for per-net problems; the status/diagnosis carry them.  The
    /// observer, when given, sees every stage that ran.
    [[nodiscard]] pipeline_result run_one(const net_source& source,
                                          const stage_observer& observer = {}) const;

    /// Runs the whole batch on the thread pool; results come back in input
    /// order regardless of completion order.
    [[nodiscard]] batch_report run(const std::vector<net_source>& sources) const;

    /// Convenience: batch over `.pn` files.
    [[nodiscard]] batch_report run_files(const std::vector<std::string>& paths) const;

private:
    pipeline_options options_;
};

} // namespace fcqss::pipeline

#endif // FCQSS_PIPELINE_SYNTHESIS_PIPELINE_HPP
