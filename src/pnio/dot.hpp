// fcqss — pnio/dot.hpp
// Graphviz DOT export for visual inspection of nets and reductions.
#ifndef FCQSS_PNIO_DOT_HPP
#define FCQSS_PNIO_DOT_HPP

#include <string>
#include <vector>

#include "pn/petri_net.hpp"

namespace fcqss::pnio {

/// Rendering options.  `highlight_transitions` draws the listed transitions
/// filled (used to visualize a T-allocation over the original net).
struct dot_options {
    bool show_weights = true;
    std::vector<pn::transition_id> highlight_transitions;
};

/// Renders the net in DOT: places as circles (token count inside),
/// transitions as boxes, weighted arcs labelled.
[[nodiscard]] std::string to_dot(const pn::petri_net& net,
                                 const dot_options& options = {});

} // namespace fcqss::pnio

#endif // FCQSS_PNIO_DOT_HPP
