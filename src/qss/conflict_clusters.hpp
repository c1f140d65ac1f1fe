// fcqss — qss/conflict_clusters.hpp
// Choice clusters: the groups of transitions among which the data-dependent
// control decides.  In an (equal-conflict) free-choice net every choice place
// induces one cluster = its consumer set, and the Equal Conflict Relation Q
// (Sec. 2) holds within each cluster.
#ifndef FCQSS_QSS_CONFLICT_CLUSTERS_HPP
#define FCQSS_QSS_CONFLICT_CLUSTERS_HPP

#include <cstdint>
#include <vector>

#include "pn/petri_net.hpp"

namespace fcqss::qss {

/// One non-deterministic choice: the place and its alternative consumers
/// (ascending by transition id, at least two).
struct choice_cluster {
    pn::place_id place;
    std::vector<pn::transition_id> alternatives;
};

/// All choice clusters, ascending by place id.  Throws domain_error when the
/// net is not free-choice or a choice has unequal arc weights (the QSS
/// algorithms require the Equal Conflict discipline so that enabling one
/// alternative enables all).
[[nodiscard]] std::vector<choice_cluster> choice_clusters(const pn::petri_net& net);

/// Deterministic firing priority keys used by the cycle simulator, from the
/// net's `clusters` (choice_clusters).  All members of a cluster share the
/// key (the minimum transition id in the cluster), so the reductions of
/// different allocations fire their chosen alternatives at the same sequence
/// positions — the prefix-agreement that validity Definition 3.1 requires.
/// Non-conflict transitions use their own id.
[[nodiscard]] std::vector<std::int32_t>
conflict_priority_keys(const pn::petri_net& net,
                       const std::vector<choice_cluster>& clusters);

/// True when t belongs to some choice cluster.
[[nodiscard]] bool in_any_cluster(const std::vector<choice_cluster>& clusters,
                                  pn::transition_id t);

} // namespace fcqss::qss

#endif // FCQSS_QSS_CONFLICT_CLUSTERS_HPP
