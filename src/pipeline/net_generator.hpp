// fcqss — pipeline/net_generator.hpp
// Seeded random workload generator for batch synthesis: produces streams of
// free-choice nets (plus marked-graph and choice-heavy variants) far beyond
// the seven paper figures, so benches and tests can sweep scenario space.
// Construction follows the schedulable-by-design recipe of the paper nets —
// layered chains below source transitions, equal-conflict choices whose
// alternatives all drain to sinks, weight-matched fork/joins — with two
// knobs that deliberately leave that safe region: `token_load` sprinkles
// initial tokens over chain places, and `defect_percent` injects a
// free-choice violation (an asymmetric join on a choice place) into a
// fraction of the nets so batch runs exercise the pipeline's rejection
// paths.  Everything is driven by one xorshift* PRNG: the same seed and
// options always reproduce byte-identical nets, independent of platform.
// The shape constants are fixed: free_choice places become choices with
// probability 35%, choices and layered fan-outs have two or three
// branches, and arc weights are 1 or 2.  perfbench, the fuzz seed range
// and tests/corpus are all built from these streams, so test_pipeline pins
// their content hashes.
#ifndef FCQSS_PIPELINE_NET_GENERATOR_HPP
#define FCQSS_PIPELINE_NET_GENERATOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "pn/petri_net.hpp"

namespace fcqss::pipeline {

/// Structural family of a generated net.  The first three are paper-shaped
/// (layered growth below sources); the last three model production traffic
/// — request/response servers, staged dataflow, bursty multirate feeds —
/// so batch runs and the fuzz harness sweep system-shaped scenarios too.
enum class net_family {
    /// No conflicts at all: chains and fork/joins only (SDF-shaped).
    marked_graph,
    /// The default mix: choices, fork/joins, and plain chains.
    free_choice,
    /// Conflict-dominated: most places become choice clusters, with two or
    /// three alternatives each — stresses the allocation enumeration.
    choice_heavy,
    /// The ATM app generalized: `sources` request classes contending for a
    /// shared pool of tellers (a resource place holding `depth` tokens).
    /// The shared pool makes the net deliberately non-free-choice — the
    /// production shape every synthesis stage must reject cleanly — while
    /// the engines still explore its (finite, credit-bounded) state space.
    client_server,
    /// Staged dataflow: `depth` alternating fan-out/fan-in layers of width
    /// two or three.  Every place keeps one producer and one consumer, so
    /// the family is a marked graph — schedulable by design, with much
    /// wider levels than the chain-shaped mg family.
    layered_pipeline,
    /// Bursty multirate feeds: each source emits bursts of 4 tokens into a
    /// buffer drained one token at a time through a chain of rate-changing
    /// stages (weight-a in, weight-b out).  Consistent by construction,
    /// with rate mismatches the scheduler must cover.
    bursty_multirate,
};

[[nodiscard]] const char* to_string(net_family family);

struct generator_options {
    net_family family = net_family::free_choice;
    /// Independent environment inputs (source transitions).
    int sources = 2;
    /// Layers of processing grown below each source.
    int depth = 4;
    /// When > 0, chain places receive up to this many initial tokens (30%
    /// of them).  Token load shifts the markings the schedule cycles
    /// through without changing the net's structure.
    int token_load = 0;
    /// Percent of generated nets given a deliberate free-choice violation,
    /// so a batch contains nets every pipeline stage must reject cleanly.
    int defect_percent = 0;
    /// When > 0, every source transition consumes from a private credit
    /// place seeded with this many tokens, so it fires at most that often.
    /// Without credit the families are unbounded (sources fire freely) and
    /// full exploration never terminates; with it the state space is finite
    /// and genuinely deadlocks once the credit drains — the workload the
    /// stubborn-reduction differentials and benches need.  0 (the default)
    /// keeps the classic unbounded sources, byte-identical to before.
    int source_credit = 0;
};

/// Deterministic stream of random nets.  next() advances the stream; two
/// generators built with the same seed and options yield identical
/// sequences.  Net names encode seed and stream position
/// ("gen_fc_s42_n3"), so results stay attributable inside a big batch.
class net_generator {
public:
    explicit net_generator(std::uint64_t seed, generator_options options = {});

    /// Generates the next net in the stream.
    [[nodiscard]] pn::petri_net next();

    /// Convenience: the next `count` nets.
    [[nodiscard]] std::vector<pn::petri_net> make(std::size_t count);

    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
    [[nodiscard]] const generator_options& options() const noexcept { return options_; }
    /// Nets generated so far (the stream position).
    [[nodiscard]] std::size_t generated() const noexcept { return generated_; }

private:
    std::uint64_t seed_;
    generator_options options_;
    std::uint64_t state_;
    std::size_t generated_ = 0;
};

} // namespace fcqss::pipeline

#endif // FCQSS_PIPELINE_NET_GENERATOR_HPP
