#include "pnio/writer.hpp"

#include <fstream>

#include "base/error.hpp"

namespace fcqss::pnio {

std::string write_net(const pn::petri_net& net)
{
    std::string out;
    out += "net " + net.name() + " {\n";

    out += "  places {\n";
    for (pn::place_id p : net.places()) {
        out += "    " + net.place_name(p);
        if (net.initial_tokens(p) != 0) {
            out += '(';
            out += std::to_string(net.initial_tokens(p));
            out += ')';
        }
        out += ";\n";
    }
    out += "  }\n";

    out += "  transitions {\n";
    for (pn::transition_id t : net.transitions()) {
        out += "    " + net.transition_name(t) + ";\n";
    }
    out += "  }\n";

    out += "  arcs {\n";
    for (pn::transition_id t : net.transitions()) {
        for (const pn::place_weight& in : net.inputs(t)) {
            out += "    " + net.place_name(in.place) + " -> " + net.transition_name(t);
            if (in.weight != 1) {
                out += " * " + std::to_string(in.weight);
            }
            out += ";\n";
        }
        for (const pn::place_weight& arc : net.outputs(t)) {
            out += "    " + net.transition_name(t) + " -> " + net.place_name(arc.place);
            if (arc.weight != 1) {
                out += " * " + std::to_string(arc.weight);
            }
            out += ";\n";
        }
    }
    out += "  }\n";

    out += "}\n";
    return out;
}

void save_net(const pn::petri_net& net, const std::string& path)
{
    std::ofstream file(path);
    if (!file) {
        throw io_error("save_net: cannot open '" + path + "' for writing");
    }
    file << write_net(net);
    if (!file) {
        throw io_error("save_net: write to '" + path + "' failed");
    }
}

} // namespace fcqss::pnio
