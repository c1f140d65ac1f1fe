#include "pnio/dot.hpp"

#include <algorithm>

namespace fcqss::pnio {

std::string to_dot(const pn::petri_net& net, const dot_options& options)
{
    std::string out;
    out += "digraph \"" + net.name() + "\" {\n";
    out += "  rankdir=LR;\n";

    for (pn::place_id p : net.places()) {
        out += "  \"" + net.place_name(p) + "\" [shape=circle";
        if (net.initial_tokens(p) > 0) {
            out += ", label=\"" + net.place_name(p) + "\\n" +
                   std::to_string(net.initial_tokens(p)) + "\"";
        }
        out += "];\n";
    }

    for (pn::transition_id t : net.transitions()) {
        const bool highlighted =
            std::find(options.highlight_transitions.begin(),
                      options.highlight_transitions.end(),
                      t) != options.highlight_transitions.end();
        out += "  \"" + net.transition_name(t) + "\" [shape=box";
        if (highlighted) {
            out += ", style=filled, fillcolor=lightblue";
        }
        out += "];\n";
    }

    const auto weight_label = [&](std::int64_t weight) -> std::string {
        if (!options.show_weights || weight == 1) {
            return "";
        }
        return " [label=\"" + std::to_string(weight) + "\"]";
    };

    for (pn::transition_id t : net.transitions()) {
        for (const pn::place_weight& in : net.inputs(t)) {
            out += "  \"" + net.place_name(in.place) + "\" -> \"" +
                   net.transition_name(t) + "\"" + weight_label(in.weight) + ";\n";
        }
        for (const pn::place_weight& arc : net.outputs(t)) {
            out += "  \"" + net.transition_name(t) + "\" -> \"" +
                   net.place_name(arc.place) + "\"" + weight_label(arc.weight) + ";\n";
        }
    }

    out += "}\n";
    return out;
}

} // namespace fcqss::pnio
