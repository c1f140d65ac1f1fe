// fcqss — qss/executability.hpp
// The paper's footnote 2: "If the net presents certain strongly connected PN
// fragments, it is possible that tokens accumulate in various T-invariants
// causing the net to deadlock even when each T-invariant by itself does not.
// In this case it is necessary to check the executability of the net."
//
// This module provides that check: it executes adversarial interleavings of
// the valid schedule's cycles — every pairwise ordering plus seeded random
// mixes — and verifies that each cycle remains fireable from every marking
// such mixes can produce (markings stay on the cycle lattice because each
// complete cycle restores the marking; the risk is mid-sequence blocking
// through shared marked fragments).
#ifndef FCQSS_QSS_EXECUTABILITY_HPP
#define FCQSS_QSS_EXECUTABILITY_HPP

#include <optional>
#include <string>

#include "qss/scheduler.hpp"

namespace fcqss::qss {

/// A witness that some cycle interleaving blocks.
struct executability_failure {
    /// Index (into result.entries) of the cycle that could not complete.
    std::size_t blocked_cycle = 0;
    /// Position within that cycle where firing failed.
    std::size_t position = 0;
    /// Human-readable replay of the interleaving.
    std::string context;
};

struct executability_options {
    /// Rounds of random cycle mixes (from a fixed seed, so the check is
    /// deterministic) to execute after the exhaustive pairwise pass.
    int random_rounds = 64;
};

/// Checks executability of a schedulable result.  Returns nullopt when every
/// tested interleaving completes; a witness otherwise.
[[nodiscard]] std::optional<executability_failure>
check_executability(const pn::petri_net& net, const qss_result& result,
                    const executability_options& options = {});

} // namespace fcqss::qss

#endif // FCQSS_QSS_EXECUTABILITY_HPP
