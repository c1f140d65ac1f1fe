#include "pn/invariants.hpp"

#include "base/error.hpp"
#include "linalg/farkas.hpp"
#include "obs/obs.hpp"
#include "pn/incidence.hpp"

namespace fcqss::pn {

std::vector<linalg::int_vector> t_invariants(const petri_net& net)
{
    if (obs::stats_enabled()) {
        static obs::counter& runs = obs::get_counter("pn.invariants.t_runs");
        runs.add(1);
    }
    // x with C x = 0  <=>  x^T C^T = 0: semiflows of C^T (rows = transitions).
    return linalg::minimal_semiflows(incidence_matrix(net).transposed());
}

std::vector<linalg::int_vector> p_invariants(const petri_net& net)
{
    // y with y^T C = 0: semiflows of C (rows = places).
    return linalg::minimal_semiflows(incidence_matrix(net));
}

bool is_consistent(const petri_net& net)
{
    const auto invariants = t_invariants(net);
    return transitions_uncovered_by(net, invariants).empty() && !invariants.empty();
}

bool is_conservative(const petri_net& net)
{
    const auto invariants = p_invariants(net);
    if (invariants.empty()) {
        return net.place_count() == 0;
    }
    std::vector<bool> covered(net.place_count(), false);
    for (const linalg::int_vector& y : invariants) {
        for (std::size_t i : linalg::support(y)) {
            covered[i] = true;
        }
    }
    for (bool c : covered) {
        if (!c) {
            return false;
        }
    }
    return true;
}

std::vector<transition_id>
transitions_uncovered_by(const petri_net& net,
                         const std::vector<linalg::int_vector>& invariants)
{
    std::vector<bool> covered(net.transition_count(), false);
    for (const linalg::int_vector& x : invariants) {
        if (x.size() != net.transition_count()) {
            throw model_error("transitions_uncovered_by: invariant size mismatch");
        }
        for (std::size_t i : linalg::support(x)) {
            covered[i] = true;
        }
    }
    std::vector<transition_id> uncovered;
    for (std::size_t i = 0; i < covered.size(); ++i) {
        if (!covered[i]) {
            uncovered.emplace_back(static_cast<std::int32_t>(i));
        }
    }
    return uncovered;
}

std::int64_t weighted_token_sum(const linalg::int_vector& p_invariant,
                                const std::vector<std::int64_t>& marking)
{
    return linalg::dot(p_invariant, marking);
}

} // namespace fcqss::pn
