#include "baselines/lin_synthesis.hpp"

#include "base/error.hpp"
#include "base/strings.hpp"
#include "pn/reachability.hpp"
#include "pn/structure.hpp"

namespace fcqss::baselines {

std::string to_string(lin_failure f)
{
    switch (f) {
    case lin_failure::none: return "ok";
    case lin_failure::has_source_transitions:
        return "net has source transitions (environment inputs are outside the "
               "safe-net model)";
    case lin_failure::not_safe:
        return "net is not safe (some buffer holds more than one token: the "
               "multirate case)";
    case lin_failure::state_space_too_large: return "state space exceeds the budget";
    }
    return "unknown";
}

std::size_t lin_program::code_size() const
{
    std::size_t size = states.size();
    for (const lin_state& state : states) {
        size += state.successors.size();
    }
    return size;
}

lin_program lin_synthesize(const pn::petri_net& net, const lin_options& options)
{
    lin_program program;
    if (!pn::source_transitions(net).empty()) {
        program.failure = lin_failure::has_source_transitions;
        return program;
    }

    pn::reachability_options explore_options;
    explore_options.max_markings = options.max_states;
    // Safeness makes 2 tokens in a place a violation; capping exploration
    // there keeps the safety check cheap even for unbounded nets.
    explore_options.max_tokens_per_place = 2;
    // Compact form: the safety scan decodes one state at a time and the
    // successor lists come from the CSR, not a materialized marking graph.
    const pn::state_space space = pn::explore_space(net, explore_options);

    std::vector<std::int64_t> counts(space.store().width());
    for (pn::state_id s = 0; s < static_cast<pn::state_id>(space.state_count()); ++s) {
        space.load(s, counts.data());
        for (std::int64_t tokens : counts) {
            if (tokens > 1) {
                program.failure = lin_failure::not_safe;
                return program;
            }
        }
    }
    if (space.truncated()) {
        // All explored markings were safe, so truncation can only mean the
        // marking count budget was hit.
        program.failure = lin_failure::state_space_too_large;
        return program;
    }

    program.states.resize(space.state_count());
    for (std::size_t s = 0; s < space.state_count(); ++s) {
        const auto edges = space.successors(static_cast<pn::state_id>(s));
        auto& successors = program.states[s].successors;
        successors.reserve(edges.size());
        for (const pn::state_space_edge& edge : edges) {
            successors.emplace_back(edge.via, static_cast<std::size_t>(edge.to));
        }
    }
    return program;
}

std::string emit_lin_c(const pn::petri_net& net, const lin_program& program)
{
    if (!program.ok()) {
        throw domain_error("emit_lin_c: synthesis failed: " + to_string(program.failure));
    }
    std::string out;
    out += "/* Generated by the Lin-style safe-net baseline: reachability state "
           "machine. */\n";
    for (pn::transition_id t : net.transitions()) {
        out += "extern void action_" + sanitize_c_identifier(net.transition_name(t)) +
               "(void);\n";
    }
    out += "extern int pick(int alternatives);\n\n";
    out += "void run(void)\n{\n    int state = 0;\n    for (;;) {\n        "
           "switch (state) {\n";
    for (std::size_t s = 0; s < program.states.size(); ++s) {
        out += "        case " + std::to_string(s) + ":\n";
        const auto& successors = program.states[s].successors;
        if (successors.empty()) {
            out += "            return; /* dead marking */\n";
            continue;
        }
        if (successors.size() == 1) {
            out += "            action_" +
                   sanitize_c_identifier(net.transition_name(successors[0].first)) +
                   "(); state = " + std::to_string(successors[0].second) + "; break;\n";
            continue;
        }
        out += "            switch (pick(" + std::to_string(successors.size()) + ")) {\n";
        for (std::size_t i = 0; i < successors.size(); ++i) {
            out += "            case " + std::to_string(i) + ": action_" +
                   sanitize_c_identifier(net.transition_name(successors[i].first)) +
                   "(); state = " + std::to_string(successors[i].second) + "; break;\n";
        }
        out += "            }\n            break;\n";
    }
    out += "        }\n    }\n}\n";
    return out;
}

} // namespace fcqss::baselines
