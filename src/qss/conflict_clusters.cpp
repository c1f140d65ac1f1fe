#include "qss/conflict_clusters.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "pn/net_class.hpp"

namespace fcqss::qss {

std::vector<choice_cluster> choice_clusters(const pn::petri_net& net)
{
    if (!pn::is_free_choice(net)) {
        throw domain_error("choice_clusters: net '" + net.name() +
                           "' is not free-choice: " +
                           pn::describe_free_choice_violation(net));
    }
    std::vector<choice_cluster> clusters;
    for (pn::place_id p : net.places()) {
        const auto& consumers = net.consumers(p);
        if (consumers.size() <= 1) {
            continue;
        }
        choice_cluster cluster;
        cluster.place = p;
        const std::int64_t weight = consumers.front().weight;
        for (const pn::transition_weight& consumer : consumers) {
            if (consumer.weight != weight) {
                throw domain_error(
                    "choice_clusters: choice place '" + net.place_name(p) +
                    "' has consumers with different arc weights; the Equal Conflict "
                    "discipline requires equal weights so that enabling one "
                    "alternative enables all");
            }
            cluster.alternatives.push_back(consumer.transition);
        }
        std::sort(cluster.alternatives.begin(), cluster.alternatives.end());
        clusters.push_back(std::move(cluster));
    }
    return clusters;
}

std::vector<std::int32_t>
conflict_priority_keys(const pn::petri_net& net,
                       const std::vector<choice_cluster>& clusters)
{
    std::vector<std::int32_t> keys(net.transition_count());
    for (pn::transition_id t : net.transitions()) {
        keys[t.index()] = t.value();
    }
    for (const choice_cluster& cluster : clusters) {
        const std::int32_t key = cluster.alternatives.front().value();
        for (pn::transition_id t : cluster.alternatives) {
            keys[t.index()] = key;
        }
    }
    return keys;
}

bool in_any_cluster(const std::vector<choice_cluster>& clusters, pn::transition_id t)
{
    for (const choice_cluster& cluster : clusters) {
        if (std::find(cluster.alternatives.begin(), cluster.alternatives.end(), t) !=
            cluster.alternatives.end()) {
            return true;
        }
    }
    return false;
}

} // namespace fcqss::qss
