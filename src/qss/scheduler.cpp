#include "qss/scheduler.hpp"

#include <cstdint>
#include <unordered_set>

#include "base/error.hpp"
#include "obs/obs.hpp"

namespace fcqss::qss {

std::vector<pn::firing_sequence> qss_result::cycles() const
{
    std::vector<pn::firing_sequence> result;
    result.reserve(entries.size());
    for (const schedule_entry& entry : entries) {
        result.push_back(entry.analysis.cycle);
    }
    return result;
}

namespace {

// The depth-first walk over the choice clusters described in the header:
// one leaf per allocation whose choices are not moot, one entry per
// distinct reduction among the leaves.
class reduction_enumerator {
public:
    reduction_enumerator(const pn::petri_net& net,
                         const std::vector<choice_cluster>& clusters, bool record_traces)
        : net_(net), clusters_(clusters), record_traces_(record_traces)
    {
        allocation_.chosen.resize(clusters.size());
    }

    std::vector<schedule_entry> run()
    {
        // Nothing is excluded yet, so the empty prefix keeps every place.
        visit(0, std::vector<bool>(net_.place_count(), true));
        return std::move(entries_);
    }

    std::uint64_t prefix_reductions = 0;
    std::uint64_t leaf_reductions = 0;

private:
    // Decides cluster `depth`; `kept_places` are the places the reduction of
    // the decided prefix keeps.
    void visit(std::size_t depth, const std::vector<bool>& kept_places)
    {
        if (depth == clusters_.size()) {
            emit();
            return;
        }
        const choice_cluster& cluster = clusters_[depth];
        // A choice place the prefix removed took every alternative with it,
        // so all choices here give the same reduction; the first one gives
        // the lowest-index allocation.
        const bool moot = !kept_places[cluster.place.index()];
        const std::size_t branches = moot ? 1 : cluster.alternatives.size();
        const std::size_t mark = excluded_.size();
        for (std::size_t a = 0; a < branches; ++a) {
            const pn::transition_id chosen = cluster.alternatives[a];
            allocation_.chosen[depth] = chosen;
            for (const pn::transition_id t : cluster.alternatives) {
                if (t != chosen) {
                    excluded_.push_back(t);
                }
            }
            if (moot || depth + 1 == clusters_.size()) {
                // Nothing new to remove, or no later choice left to prune.
                visit(depth + 1, kept_places);
            } else {
                ++prefix_reductions;
                visit(depth + 1, reduce_excluding(net_, excluded_).keep_place);
            }
            excluded_.resize(mark);
        }
    }

    void emit()
    {
        ++leaf_reductions;
        t_reduction reduction = reduce(net_, clusters_, allocation_, record_traces_);
        std::vector<bool> key = reduction.keep_transition;
        key.insert(key.end(), reduction.keep_place.begin(), reduction.keep_place.end());
        if (seen_.insert(std::move(key)).second) {
            entries_.push_back({std::move(reduction), {}});
        }
    }

    const pn::petri_net& net_;
    const std::vector<choice_cluster>& clusters_;
    bool record_traces_;
    t_allocation allocation_;
    /// Unchosen alternatives of the decided prefix.
    std::vector<pn::transition_id> excluded_;
    /// keep_transition followed by keep_place of every reduction emitted.
    std::unordered_set<std::vector<bool>> seen_;
    std::vector<schedule_entry> entries_;
};

// Throws resource_limit_error when the allocation space of `clusters` is
// above the cap; returns its size otherwise.
std::size_t enforce_allocation_cap(const std::vector<choice_cluster>& clusters,
                                   const scheduler_options& options)
{
    const std::size_t allocations = allocation_count(clusters);
    if (allocations > options.max_allocations) {
        throw resource_limit_error("enumerate_allocations: " +
                                   std::to_string(allocations) +
                                   " allocations exceed the configured limit of " +
                                   std::to_string(options.max_allocations));
    }
    return allocations;
}

} // namespace

qss_result quasi_static_schedule(const pn::petri_net& net,
                                 const scheduler_options& options)
{
    // The cap comes first, so a capped net never pays for the analysis.
    static_cast<void>(enforce_allocation_cap(choice_clusters(net), options));
    return quasi_static_schedule(net, analyze_net(net), options);
}

qss_result quasi_static_schedule(const pn::petri_net& net, const net_analysis& analysis,
                                 const scheduler_options& options)
{
    qss_result result;
    result.clusters = analysis.clusters;
    result.allocations_enumerated = enforce_allocation_cap(result.clusters, options);

    const bool stats = obs::stats_enabled();
    const std::uint64_t start_ns = stats ? obs::now_ns() : 0;
    reduction_enumerator enumerator(net, result.clusters, options.record_traces);
    {
        obs::span span("qss.enumerate", "allocations",
                       static_cast<std::int64_t>(result.allocations_enumerated));
        result.entries = enumerator.run();
        span.arg("reductions", static_cast<std::int64_t>(result.entries.size()));
    }
    const std::uint64_t enumerated_ns = stats ? obs::now_ns() : 0;

    // Def. 3.5 on every distinct reduction; Theorem 3.1 assembles the verdict.
    bool all_ok = true;
    {
        const obs::span span("qss.check", "reductions",
                             static_cast<std::int64_t>(result.entries.size()));
        for (schedule_entry& entry : result.entries) {
            entry.analysis = schedule_reduction(net, analysis, entry.reduction);
            if (!entry.analysis.ok()) {
                all_ok = false;
                if (result.failure == reduction_failure::none) {
                    result.failure = entry.analysis.failure;
                }
                if (!result.diagnosis.empty()) {
                    result.diagnosis += "; ";
                }
                result.diagnosis += "T-reduction for allocation " +
                                    to_string(net, result.clusters,
                                              entry.reduction.allocation) +
                                    " is " + to_string(entry.analysis.failure);
                if (!entry.analysis.offending.empty()) {
                    result.diagnosis += " (";
                    for (std::size_t i = 0; i < entry.analysis.offending.size(); ++i) {
                        if (i != 0) {
                            result.diagnosis += ", ";
                        }
                        result.diagnosis +=
                            net.transition_name(entry.analysis.offending[i]);
                    }
                    result.diagnosis += ")";
                }
            }
        }
    }
    result.schedulable = all_ok;

    if (stats) {
        static obs::counter& schedules = obs::get_counter("qss.schedules");
        static obs::counter& space = obs::get_counter("qss.allocation_space");
        static obs::counter& prefix = obs::get_counter("qss.prefix_reductions");
        static obs::counter& leaf = obs::get_counter("qss.leaf_reductions");
        static obs::counter& distinct = obs::get_counter("qss.distinct_reductions");
        static obs::counter& enumerate_ns = obs::get_counter("qss.enumerate_ns", "ns");
        static obs::counter& check_ns = obs::get_counter("qss.check_ns", "ns");
        schedules.add(1);
        space.add(result.allocations_enumerated);
        prefix.add(enumerator.prefix_reductions);
        leaf.add(enumerator.leaf_reductions);
        distinct.add(result.entries.size());
        enumerate_ns.add(enumerated_ns - start_ns);
        check_ns.add(obs::now_ns() - enumerated_ns);
    }
    return result;
}

} // namespace fcqss::qss
