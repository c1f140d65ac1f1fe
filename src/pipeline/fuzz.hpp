// fcqss — pipeline/fuzz.hpp
// The standing differential fuzz discipline: seeded base nets from every
// generator family, mutated by pn/mutator.hpp, driven through the full
// verdict matrix
//
//   {sequential, parallel} x {none, deadlock} reduction
//
// under tight exploration budgets, plus one synthesis-pipeline pass.  The
// invariants checked per mutant:
//
//   engine agreement     for each reduction kind, the parallel engine's
//                        state space is bit-identical to the sequential one
//                        (states, edges, decoded tokens, truncation) — the
//                        repo-wide determinism guarantee.
//   reduction soundness  a stubborn-reduced exploration never visits more
//                        states than the full one (both untruncated), every
//                        definite has-deadlock verdict agrees across all
//                        four cells, and untruncated cells agree on the
//                        exact set of reachable dead markings.
//   rejection, not UB    the synthesis path (classify -> structural -> QSS
//                        -> codegen) either succeeds or rejects with a
//                        typed status; pipeline_status::failed (an escaped
//                        internal error) is a finding, and crashes/UB
//                        surface under the sanitizer CI jobs.
//
// A disagreement is auto-shrunk by replaying subsets of the mutation plan
// (greedy delta-debugging over pn::apply_mutations, which is pure) and
// written out as a minimized `.pn` reproducer for tests/corpus/.
//
// Everything is deterministic: seed k always produces the same base net,
// the same mutant, and the same verdicts, on every platform.
#ifndef FCQSS_PIPELINE_FUZZ_HPP
#define FCQSS_PIPELINE_FUZZ_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pipeline/net_generator.hpp"
#include "pn/mutator.hpp"
#include "pn/petri_net.hpp"

namespace fcqss::pipeline {

struct fuzz_options {
    /// Mutant seeds are seed_begin, seed_begin + 1, ... (one mutant each).
    std::uint64_t seed_begin = 1;
    std::size_t seeds = 100;
    /// Families to cycle through (mutant i uses families[i % size]).
    /// Empty means all six.
    std::vector<net_family> families{};
    /// Mutation-plan knob: mutations per mutant.
    pn::mutation_options mutation{};
    /// Per-cell state budget.  Tight on purpose: mutants are routinely
    /// unbounded, and truncation is part of the surface under test.  The
    /// per-place token cap is fixed at 64 (fuzz.cpp).
    std::size_t max_states = 4000;
    /// Resident marking-arena budget per cell (0 = unlimited, all in RAM).
    /// Non-zero routes every cell through the mmap spill path, so the fuzz
    /// matrix doubles as a differential test of the external-memory store.
    std::size_t max_bytes = 0;
    /// Thread count of the parallel-engine column.
    std::size_t threads = 2;
    /// Scheduler allocation budget for the synthesis pass on each mutant.
    std::size_t max_allocations = 512;
    /// Run the synthesis pipeline on each mutant (off explores only).
    bool run_synthesis = true;
    /// Shrink disagreements to a minimal mutation subset before reporting.
    bool shrink = true;
};

/// One verified disagreement, minimized and reproducible.
struct fuzz_finding {
    std::uint64_t seed = 0;
    net_family family = net_family::free_choice;
    std::string net_name;
    /// What disagreed (matrix cell names and the differing quantities).
    std::string reason;
    /// The minimized mutant as a `.pn` document — drop it in tests/corpus/.
    std::string reproducer;
    /// Mutations surviving the shrink (0 = the base net itself disagrees).
    std::size_t mutations_applied = 0;
    std::size_t shrink_steps = 0;
};

struct fuzz_report {
    std::size_t mutants = 0;
    std::size_t matrix_runs = 0;
    std::vector<fuzz_finding> findings;

    [[nodiscard]] bool clean() const noexcept { return findings.empty(); }
};

/// Runs the verdict matrix on one net; returns a disagreement description,
/// empty when every invariant holds.  This is the exact check the fuzz loop
/// applies to every mutant — exposed so the corpus replay test and the
/// shrinker share it.
[[nodiscard]] std::string check_verdict_matrix(const pn::petri_net& net,
                                               const fuzz_options& options = {});

/// The fuzz loop: generate, mutate, check, shrink.  `on_finding`, when
/// given, is invoked for each finding as it is minimized (the CLI streams
/// reproducers to disk this way).  obs counters: fuzz.mutants,
/// fuzz.matrix_runs, fuzz.disagreements, fuzz.shrink_steps.
[[nodiscard]] fuzz_report
run_fuzz(const fuzz_options& options = {},
         const std::function<void(const fuzz_finding&)>& on_finding = {});

} // namespace fcqss::pipeline

#endif // FCQSS_PIPELINE_FUZZ_HPP
