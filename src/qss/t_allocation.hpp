// fcqss — qss/t_allocation.hpp
// T-allocations (Def. 3.3): control functions that pick exactly one successor
// transition for each place.  Only choice places carry a real decision, so an
// allocation is represented by one chosen transition per choice cluster.
// The allocation space is exponential in the number of clusters (Sec. 3's
// complexity remark), but many allocations share a T-reduction; the
// scheduler (qss/scheduler.hpp) skips the choices that earlier clusters'
// choices make moot and never materializes the space.  allocation_count() sizes it
// for the scheduler's cap.
#ifndef FCQSS_QSS_T_ALLOCATION_HPP
#define FCQSS_QSS_T_ALLOCATION_HPP

#include <string>
#include <vector>

#include "pn/petri_net.hpp"
#include "qss/conflict_clusters.hpp"

namespace fcqss::qss {

/// One T-allocation: chosen[i] is the transition picked for cluster i (the
/// clusters come from choice_clusters(net), ascending by place id).
struct t_allocation {
    std::vector<pn::transition_id> chosen;

    friend bool operator==(const t_allocation&, const t_allocation&) = default;
};

/// Transitions excluded by the allocation: every unchosen alternative of
/// every cluster, ascending, deduplicated.
[[nodiscard]] std::vector<pn::transition_id>
excluded_transitions(const std::vector<choice_cluster>& clusters,
                     const t_allocation& allocation);

/// Size of the allocation space (product of cluster sizes, saturating).
[[nodiscard]] std::size_t allocation_count(const std::vector<choice_cluster>& clusters);

/// Renders e.g. "{p1 -> t2, p5 -> t9}".
[[nodiscard]] std::string to_string(const pn::petri_net& net,
                                    const std::vector<choice_cluster>& clusters,
                                    const t_allocation& allocation);

} // namespace fcqss::qss

#endif // FCQSS_QSS_T_ALLOCATION_HPP
