#include "pipeline/fuzz.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "pipeline/synthesis_pipeline.hpp"
#include "pn/reachability.hpp"
#include "pn/state_space.hpp"
#include "pnio/writer.hpp"

namespace fcqss::pipeline {

namespace {

using tokens_vec = std::vector<std::int64_t>;

/// What one matrix cell concluded.  "Definite" verdicts survive truncation:
/// a dead state found in a truncated (even reduced) exploration is a real
/// reachable deadlock; "no deadlock" is only definite on a full graph.
struct cell_verdict {
    std::size_t states = 0;
    std::size_t edges = 0;
    bool truncated = false;
    std::set<tokens_vec> dead; ///< reachable dead markings in the fragment

    [[nodiscard]] bool definite_deadlock() const { return !dead.empty(); }
    [[nodiscard]] bool definite_deadlock_free() const
    {
        return dead.empty() && !truncated;
    }
};

/// The matrix cells, one per reduction, and their names in reports.
constexpr pn::reduction_kind cell_reductions[] = {
    pn::reduction_kind::none,
    pn::reduction_kind::deadlock,
};
constexpr const char* cell_names[] = {"none", "deadlock"};

/// Per-cell token cap: a successor with more tokens in some place is
/// dropped and truncates the cell, like the state budget.
constexpr std::int64_t max_tokens_per_place = 64;

/// Bit-identity check between the sequential cell and one parallel cell
/// (`cell` names it, e.g. "par/deadlock"); any difference is a disagreement
/// by itself.
std::string compare_spaces(const pn::state_space& seq, const pn::state_space& par,
                           const std::string& cell)
{
    const std::string where = "[seq vs " + cell + "] ";
    if (seq.state_count() != par.state_count()) {
        return where + "state counts differ: " + std::to_string(seq.state_count()) +
               " vs " + std::to_string(par.state_count());
    }
    if (seq.edge_count() != par.edge_count()) {
        return where + "edge counts differ: " + std::to_string(seq.edge_count()) +
               " vs " + std::to_string(par.edge_count());
    }
    if (seq.truncated() != par.truncated()) {
        return where + "truncation verdicts differ";
    }
    tokens_vec seq_tokens(seq.store().width());
    tokens_vec par_tokens(par.store().width());
    for (pn::state_id s = 0; s < static_cast<pn::state_id>(seq.state_count()); ++s) {
        seq.load(s, seq_tokens.data());
        par.load(s, par_tokens.data());
        if (seq_tokens != par_tokens) {
            return where + "state " + std::to_string(s) + " markings differ";
        }
        const auto seq_edges = seq.successors(s);
        const auto par_edges = par.successors(s);
        if (!std::equal(seq_edges.begin(), seq_edges.end(), par_edges.begin(),
                        par_edges.end())) {
            return where + "state " + std::to_string(s) + " edges differ";
        }
    }
    return {};
}

cell_verdict verdict_of(const pn::petri_net& net, const pn::state_space& space)
{
    cell_verdict v;
    v.states = space.state_count();
    v.edges = space.edge_count();
    v.truncated = space.truncated();
    for (const pn::state_id s : pn::deadlock_states(net, space)) {
        v.dead.insert(space.tokens(s));
    }
    return v;
}

} // namespace

std::string check_verdict_matrix(const pn::petri_net& net, const fuzz_options& options)
{
    cell_verdict verdicts[std::size(cell_reductions)];
    for (std::size_t c = 0; c < std::size(cell_reductions); ++c) {
        pn::reachability_options explore;
        explore.max_markings = options.max_states;
        explore.max_tokens_per_place = max_tokens_per_place;
        explore.max_bytes = options.max_bytes;
        explore.reduction = cell_reductions[c];
        explore.threads = 1;
        const pn::state_space seq = pn::explore_space(net, explore);
        explore.threads = options.threads > 1 ? options.threads : 2;
        const pn::state_space par = pn::explore_space(net, explore);
        const char* name = cell_names[c];
        if (std::string reason = compare_spaces(seq, par, std::string("par/") + name);
            !reason.empty()) {
            return reason;
        }
        verdicts[c] = verdict_of(net, seq);
    }

    // Reduction soundness against the full exploration (cell 0).
    const cell_verdict& full = verdicts[0];
    for (std::size_t c = 1; c < std::size(cell_reductions); ++c) {
        const cell_verdict& reduced = verdicts[c];
        const char* name = cell_names[c];
        if (!full.truncated && !reduced.truncated &&
            reduced.states > full.states) {
            return std::string("[") + name + "] reduced exploration visited " +
                   std::to_string(reduced.states) + " states, full only " +
                   std::to_string(full.states);
        }
    }

    // Deadlock agreement across every pair of cells.
    for (std::size_t a = 0; a < std::size(cell_reductions); ++a) {
        for (std::size_t b = a + 1; b < std::size(cell_reductions); ++b) {
            const char* name_a = cell_names[a];
            const char* name_b = cell_names[b];
            const cell_verdict& va = verdicts[a];
            const cell_verdict& vb = verdicts[b];
            if ((va.definite_deadlock() && vb.definite_deadlock_free()) ||
                (vb.definite_deadlock() && va.definite_deadlock_free())) {
                return std::string("[") + name_a + " vs " + name_b +
                       "] definite has-deadlock verdicts disagree";
            }
            if (!va.truncated && !vb.truncated && va.dead != vb.dead) {
                return std::string("[") + name_a + " vs " + name_b +
                       "] dead-marking sets differ: " + std::to_string(va.dead.size()) +
                       " vs " + std::to_string(vb.dead.size());
            }
        }
    }

    // The synthesis path must reject, never leak an internal error (crashes
    // and UB are caught by running this harness under the sanitizers).
    if (options.run_synthesis) {
        pipeline_options popts;
        popts.jobs = 1;
        popts.scheduler.max_allocations = options.max_allocations;
        const synthesis_pipeline pipe(popts);
        const pipeline_result result = pipe.run_one(net_source::from_net(net));
        if (result.status == pipeline_status::failed) {
            return "[synthesis] internal error escaped a stage: " + result.diagnosis;
        }
    }
    return {};
}

namespace {

/// Base-net knobs per family: small, credit-bounded, with token load and a
/// defect fraction so the base stream already straddles accept/reject.
generator_options base_options(net_family family)
{
    generator_options options;
    options.family = family;
    options.sources = 2;
    options.depth = 3;
    options.token_load = 1;
    options.defect_percent = 25;
    options.source_credit = 1;
    return options;
}

const std::vector<net_family>& all_families()
{
    static const std::vector<net_family> families = {
        net_family::marked_graph,    net_family::free_choice,
        net_family::choice_heavy,    net_family::client_server,
        net_family::layered_pipeline, net_family::bursty_multirate,
    };
    return families;
}

} // namespace

fuzz_report run_fuzz(const fuzz_options& options,
                     const std::function<void(const fuzz_finding&)>& on_finding)
{
    obs::counter& mutants_counter = obs::get_counter("fuzz.mutants");
    obs::counter& matrix_counter = obs::get_counter("fuzz.matrix_runs");
    obs::counter& disagreement_counter = obs::get_counter("fuzz.disagreements");
    obs::counter& shrink_counter = obs::get_counter("fuzz.shrink_steps");

    const std::vector<net_family>& families =
        options.families.empty() ? all_families() : options.families;

    fuzz_report report;
    for (std::size_t i = 0; i < options.seeds; ++i) {
        const std::uint64_t seed = options.seed_begin + i;
        const net_family family = families[i % families.size()];
        net_generator generator(seed, base_options(family));
        const pn::petri_net base = generator.next();

        const std::vector<pn::mutation> plan =
            pn::plan_mutations(base, seed, options.mutation);
        pn::mutation_result mutant = pn::apply_mutations(base, plan);
        ++report.mutants;
        mutants_counter.add(1);

        std::string reason = check_verdict_matrix(mutant.net, options);
        ++report.matrix_runs;
        matrix_counter.add(1);
        if (reason.empty()) {
            continue;
        }
        disagreement_counter.add(1);

        fuzz_finding finding;
        finding.seed = seed;
        finding.family = family;
        finding.net_name = mutant.net.name();

        // Greedy delta-debugging: drop one applied mutation at a time,
        // keeping any subset that still disagrees.  apply_mutations is pure,
        // so every candidate replays deterministically.
        std::vector<pn::mutation> surviving = std::move(mutant.applied);
        if (options.shrink) {
            bool improved = true;
            while (improved) {
                improved = false;
                for (std::size_t drop = 0; drop < surviving.size(); ++drop) {
                    std::vector<pn::mutation> candidate;
                    candidate.reserve(surviving.size() - 1);
                    for (std::size_t k = 0; k < surviving.size(); ++k) {
                        if (k != drop) {
                            candidate.push_back(surviving[k]);
                        }
                    }
                    const pn::mutation_result reduced =
                        pn::apply_mutations(base, candidate);
                    ++finding.shrink_steps;
                    shrink_counter.add(1);
                    ++report.matrix_runs;
                    matrix_counter.add(1);
                    std::string reduced_reason =
                        check_verdict_matrix(reduced.net, options);
                    if (!reduced_reason.empty()) {
                        surviving = std::move(candidate);
                        reason = std::move(reduced_reason);
                        improved = true;
                        break;
                    }
                }
            }
        }

        const pn::mutation_result minimized = pn::apply_mutations(base, surviving);
        finding.reason = std::move(reason);
        finding.reproducer = pnio::write_net(minimized.net);
        finding.mutations_applied = minimized.applied.size();
        if (on_finding) {
            on_finding(finding);
        }
        report.findings.push_back(std::move(finding));
    }
    return report;
}

} // namespace fcqss::pipeline
