#include "qss/t_allocation.hpp"

#include <algorithm>

#include "base/error.hpp"

namespace fcqss::qss {

std::vector<pn::transition_id>
excluded_transitions(const std::vector<choice_cluster>& clusters,
                     const t_allocation& allocation)
{
    if (allocation.chosen.size() != clusters.size()) {
        throw model_error("excluded_transitions: allocation/cluster size mismatch");
    }
    std::vector<pn::transition_id> excluded;
    for (std::size_t i = 0; i < clusters.size(); ++i) {
        for (pn::transition_id t : clusters[i].alternatives) {
            if (t != allocation.chosen[i]) {
                excluded.push_back(t);
            }
        }
    }
    std::sort(excluded.begin(), excluded.end());
    excluded.erase(std::unique(excluded.begin(), excluded.end()), excluded.end());
    return excluded;
}

std::size_t allocation_count(const std::vector<choice_cluster>& clusters)
{
    std::size_t count = 1;
    for (const choice_cluster& cluster : clusters) {
        const std::size_t alternatives = cluster.alternatives.size();
        if (count > SIZE_MAX / alternatives) {
            return SIZE_MAX; // saturate
        }
        count *= alternatives;
    }
    return count;
}

std::string to_string(const pn::petri_net& net,
                      const std::vector<choice_cluster>& clusters,
                      const t_allocation& allocation)
{
    std::string text = "{";
    for (std::size_t i = 0; i < clusters.size(); ++i) {
        if (i != 0) {
            text += ", ";
        }
        text += net.place_name(clusters[i].place) + " -> " +
                net.transition_name(allocation.chosen[i]);
    }
    text += "}";
    return text;
}

} // namespace fcqss::qss
