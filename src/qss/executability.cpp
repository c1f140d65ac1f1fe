#include "qss/executability.hpp"

#include "base/error.hpp"
#include "base/prng.hpp"
#include "pn/state_space.hpp"

namespace fcqss::qss {

std::optional<executability_failure>
check_executability(const pn::petri_net& net, const qss_result& result,
                    const executability_options& options)
{
    if (!result.schedulable) {
        throw domain_error("check_executability: net is not schedulable");
    }
    const auto cycles = result.cycles();

    // All replays run on one dense token game: reset() rewinds to the
    // initial marking without reallocating, run() reports the first
    // position where a cycle blocks.
    pn::token_game game(net);

    // Exhaustive pairwise pass: run cycle i then cycle j (each complete
    // cycle restores the initial marking, so longer compositions reduce to
    // chains of these steps; the pairwise pass catches ordering-dependent
    // blocking through shared fragments).
    for (std::size_t i = 0; i < cycles.size(); ++i) {
        for (std::size_t j = 0; j < cycles.size(); ++j) {
            game.reset();
            if (const auto at = game.run(cycles[i])) {
                return executability_failure{
                    i, *at, "first cycle " + std::to_string(i) + " alone"};
            }
            if (const auto at = game.run(cycles[j])) {
                return executability_failure{
                    j, *at,
                    "cycle " + std::to_string(j) + " after cycle " + std::to_string(i)};
            }
        }
    }

    // Random mixes: long adversarial runs through the cycle set, from one
    // fixed seed so a witness reproduces.
    prng rng(1);
    for (int round = 0; round < options.random_rounds; ++round) {
        game.reset();
        std::string history;
        const int length = 2 + static_cast<int>(rng.below(6));
        for (int step = 0; step < length; ++step) {
            const std::size_t pick = rng.below(cycles.size());
            history += (step ? " -> " : "") + std::to_string(pick);
            if (const auto at = game.run(cycles[pick])) {
                return executability_failure{pick, *at, "random mix " + history};
            }
        }
        if (!game.at_initial()) {
            return executability_failure{0, 0,
                                         "random mix " + history +
                                             " did not restore the initial marking"};
        }
    }
    return std::nullopt;
}

} // namespace fcqss::qss
