// fcqss — pnio/dot.hpp
// Graphviz DOT export for visual inspection of nets and reductions.
#ifndef FCQSS_PNIO_DOT_HPP
#define FCQSS_PNIO_DOT_HPP

#include <string>

#include "pn/petri_net.hpp"

namespace fcqss::pnio {

/// Renders the net in DOT: places as circles (token count inside),
/// transitions as boxes, arcs of weight above 1 labelled.
[[nodiscard]] std::string to_dot(const pn::petri_net& net);

} // namespace fcqss::pnio

#endif // FCQSS_PNIO_DOT_HPP
