// Shared test utilities: a seeded random free-choice net generator (for
// property-style sweeps), the toggles-plus-counter net the exploration
// tests share, the comparison of an engine result with the reference BFS,
// an eager reference simulator that mirrors the generated code's
// operational semantics on the net itself, and the brute-force
// T-allocation oracle for the scheduler's enumeration.
#ifndef FCQSS_TESTS_TEST_UTIL_HPP
#define FCQSS_TESTS_TEST_UTIL_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/prng.hpp"
#include "codegen/interpreter.hpp"
#include "pn/builder.hpp"
#include "pn/firing.hpp"
#include "pn/petri_net.hpp"
#include "pn/reachability.hpp"
#include "pn/state_space.hpp"
#include "qss/scheduler.hpp"

namespace fcqss::testutil {

/// The shared deterministic PRNG (see base/prng.hpp).
using fcqss::prng;

struct random_net_options {
    int sources = 2;          // independent inputs
    int depth = 4;            // layers of processing
    int width = 3;            // transitions per layer
    int choice_percent = 35;  // probability a place becomes a choice
    int max_weight = 2;       // arc weights in [1, max_weight]
    bool allow_joins = true;
};

/// Generates a schedulable-by-construction free-choice net: layered forward
/// chains from source transitions, choices branch to per-alternative chains
/// that all terminate in sink transitions, weights paired so every path is
/// balanced (producer weight w feeds a consumer of weight w or 1xw / wx1
/// pairs that the QSS cycle covers).
[[nodiscard]] pn::petri_net
random_free_choice_net(std::uint64_t seed, const random_net_options& options = {});

/// A net whose counter place `c` starts at `root` and grows mid-run.
/// `toggles` independent places a_i each hold a token that flips to b_i
/// and back; every flip adds `step` tokens to c (step 0: flips leave c
/// alone).  With `fuse` > 0 a token walks a chain of `fuse` places, each
/// walk adding `walk_step` to c, and then a `jump` transition adds `jump`
/// tokens to c once — so counts cross widths at chosen BFS depths, where
/// the toggles have made the frontier wide.  The toggle cycles next to the
/// fuse are also what a stubborn reduction ignores the fuse in.
[[nodiscard]] pn::petri_net counter_net(const std::string& name, std::int64_t root,
                                        std::int64_t step, int toggles, int fuse = 0,
                                        std::int64_t walk_step = 0,
                                        std::int64_t jump = 0);

/// The first difference between an engine result and the reference graph
/// (pn::explore_reference) of the same net and budgets, or "" when they are
/// the same graph: state count, truncation, each state's marking_of()
/// against the node's marking, each state's edges in order, and the total
/// edge count.  A string rather than gtest assertions, so this library
/// stays independent of gtest.
[[nodiscard]] std::string
difference_from_reference(const pn::state_space& space,
                          const pn::reachability_graph& reference);

/// Eager reference semantics: fire `source`, then repeatedly fire any
/// enabled non-source transition (choices resolved by the oracle, keyed by
/// the choice place), until quiescent.  Mirrors the generated code's
/// reaction semantics; every fired transition is reported in order.
void eager_react(const pn::petri_net& net, pn::marking& m, pn::transition_id source,
                 const std::function<int(pn::place_id)>& choose,
                 const std::function<void(pn::transition_id)>& on_fire,
                 int max_steps = 100000);

/// Every T-allocation of `clusters` in odometer order (most significant
/// cluster first, alternatives ascending) — allocation_count() of them.
[[nodiscard]] std::vector<qss::t_allocation>
enumerate_allocations(const std::vector<qss::choice_cluster>& clusters);

/// Brute-force twin of qss::quasi_static_schedule without the allocation
/// cap: reduces every allocation, keeps the first occurrence of each subnet
/// (linear same_subnet scan), checks Def. 3.5 on each and assembles the
/// verdict and diagnosis as the scheduler does.
[[nodiscard]] qss::qss_result brute_force_schedule(const pn::petri_net& net);

} // namespace fcqss::testutil

#endif // FCQSS_TESTS_TEST_UTIL_HPP
