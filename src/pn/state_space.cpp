#include "pn/state_space.hpp"

#include <algorithm>
#include <optional>

#include "exec/chunk_pager.hpp"
#include "obs/obs.hpp"

namespace fcqss::pn {

namespace detail {

marking_store& space_access::store(state_space& space)
{
    return space.store_;
}

grow_array<state_space_edge>& space_access::edges(state_space& space)
{
    return space.edges_;
}

grow_array<std::size_t>& space_access::edge_offsets(state_space& space)
{
    return space.edge_offsets_;
}

bool& space_access::truncated(state_space& space)
{
    return space.truncated_;
}

void flush_store_obs(const marking_store_stats& stats, std::size_t bytes)
{
    if (!obs::stats_enabled()) {
        return;
    }
    static obs::counter& probes = obs::get_counter("pn.store.hash_probes");
    static obs::counter& hits = obs::get_counter("pn.store.dedup_hits");
    static obs::counter& inserts = obs::get_counter("pn.store.inserts");
    static obs::counter& rejects = obs::get_counter("pn.store.budget_rejects");
    static obs::counter& resizes = obs::get_counter("pn.store.table_resizes");
    static obs::counter& arena = obs::get_counter("pn.store.arena_bytes", "bytes");
    static obs::counter& widenings = obs::get_counter("pn.store.widenings");
    probes.add(stats.probes);
    hits.add(stats.dedup_hits);
    inserts.add(stats.inserts);
    rejects.add(stats.budget_rejects);
    resizes.add(stats.resizes);
    arena.add(bytes);
    widenings.add(stats.widenings);
}

void flush_store_obs(const marking_store& store)
{
    if (!obs::stats_enabled()) {
        return;
    }
    flush_store_obs(store.stats(), store.memory_bytes());
    static obs::counter& chunks = obs::get_counter("pn.store.chunks");
    static obs::gauge& count_bytes = obs::get_gauge("pn.store.count_bytes", "bytes");
    chunks.add(store.chunk_count());
    count_bytes.set_max(static_cast<double>(store.count_bytes()));
}

template <typename Count>
bool enabled_in(const petri_net& net, const Count* tokens, transition_id t)
{
    for (const place_weight& in : net.inputs(t)) {
        if (static_cast<std::int64_t>(tokens[in.place.index()]) < in.weight) {
            return false;
        }
    }
    return true;
}

std::vector<std::vector<transition_id>> affected_transitions(const petri_net& net)
{
    std::vector<std::vector<transition_id>> affected(net.transition_count());
    for (transition_id t : net.transitions()) {
        std::vector<transition_id>& list = affected[t.index()];
        for (const place_weight& in : net.inputs(t)) {
            for (const transition_weight& c : net.consumers(in.place)) {
                list.push_back(c.transition);
            }
        }
        for (const place_weight& out : net.outputs(t)) {
            for (const transition_weight& c : net.consumers(out.place)) {
                list.push_back(c.transition);
            }
        }
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
    }
    return affected;
}

template <typename Count>
void merge_enabled(const petri_net& net, std::span<const transition_id> parent_enabled,
                   std::span<const transition_id> recheck, const Count* tokens,
                   std::vector<transition_id>& out)
{
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < parent_enabled.size() || j < recheck.size()) {
        if (j == recheck.size() ||
            (i < parent_enabled.size() && parent_enabled[i] < recheck[j])) {
            out.push_back(parent_enabled[i++]);
        } else {
            if (i < parent_enabled.size() && parent_enabled[i] == recheck[j]) {
                ++i;
            }
            const transition_id candidate = recheck[j++];
            if (enabled_in(net, tokens, candidate)) {
                out.push_back(candidate);
            }
        }
    }
}

#define FCQSS_INSTANTIATE_COUNT(Count)                                                 \
    template bool enabled_in(const petri_net&, const Count*, transition_id);           \
    template void merge_enabled(const petri_net&, std::span<const transition_id>,       \
                                std::span<const transition_id>, const Count*,           \
                                std::vector<transition_id>&);
FCQSS_INSTANTIATE_COUNT(std::uint8_t)
FCQSS_INSTANTIATE_COUNT(std::uint16_t)
FCQSS_INSTANTIATE_COUNT(std::uint32_t)
FCQSS_INSTANTIATE_COUNT(std::int64_t)
#undef FCQSS_INSTANTIATE_COUNT

std::optional<stubborn_reduction> make_reduction(const petri_net& net,
                                                 const reachability_options& options)
{
    if (options.reduction == reduction_kind::none) {
        return std::nullopt;
    }
    return stubborn_reduction(net);
}

} // namespace detail

marking state_space::marking_of(state_id s) const
{
    return marking(store_.tokens(s));
}

state_space explore_state_space(const petri_net& net, const reachability_options& options)
{
    obs::span run_span("explore.seq");
    const std::size_t width = net.place_count();
    const std::int64_t cap = options.max_tokens_per_place;

    state_space result;
    // Under a byte budget the arena spills through a pager; the shared_ptr
    // rides inside the store so the mappings outlive the exploration for as
    // long as the returned space does.
    const auto pager = options.max_bytes == 0
                           ? nullptr
                           : std::make_shared<exec::chunk_pager>(options.max_bytes);
    // Rows start at the narrowest count width that holds the root and widen
    // inside intern() when a fresh marking outgrows it.
    const std::vector<std::int64_t>& m0 = net.initial_marking_vector();
    result.store_ = marking_store(width, pager, row_count_bytes(m0.data(), width));

    // Progress counters are flushed as deltas every few thousand expansions
    // (and once at the end), so a concurrent snapshot() sees them grow
    // monotonically without the expansion loop paying per-state atomics.
    std::size_t flushed_states = 0;
    std::size_t flushed_edges = 0;
    const auto flush_progress = [&] {
        if (!obs::stats_enabled()) {
            return;
        }
        static obs::counter& states_counter = obs::get_counter("pn.explore.states");
        static obs::counter& edges_counter = obs::get_counter("pn.explore.edges");
        states_counter.add(result.store_.size() - flushed_states);
        edges_counter.add(result.edges_.size() - flushed_edges);
        flushed_states = result.store_.size();
        flushed_edges = result.edges_.size();
    };

    const std::vector<std::vector<transition_id>> affected =
        detail::affected_transitions(net);

    const std::uint64_t root_hash = marking_store::hash_tokens(m0.data(), width);
    result.store_.intern(m0.data(), root_hash);

    // Every interned state except possibly the root obeys the token cap in
    // every place (successors are rejected otherwise), so per-edge cap
    // checking only needs the places the fired transition raised.  The root
    // is taken as given; if it already exceeds the cap somewhere, its own
    // expansion scans the full vector instead.
    bool root_over_cap = false;
    for (std::int64_t count : m0) {
        if (count > cap) {
            root_over_cap = true;
            break;
        }
    }

    // Per-state enabled sets (ascending by transition id), kept only until
    // the state is expanded.  The root's is the one full scan.
    std::vector<std::vector<transition_id>> enabled_of(1);
    for (transition_id t : net.transitions()) {
        if (detail::enabled_in(net, m0.data(), t)) {
            enabled_of[0].push_back(t);
        }
    }

    std::vector<std::int64_t> scratch(width);
    std::vector<transition_id> merged;
    result.edge_offsets_.push_back(0);

    // Optional stubborn-set reduction: only a stubborn subset of each
    // state's enabled set is expanded.  The *full* enabled sets are still
    // maintained incrementally — successors derive theirs from the parent's
    // full set, reduced or not.
    const std::optional<stubborn_reduction> stubborn =
        detail::make_reduction(net, options);
    stubborn_workspace stubborn_ws;
    std::vector<transition_id> reduced;

    // Discovery order is expansion order: states get ascending ids and are
    // expanded in id order, which is exactly the reference BFS.
    for (state_id s = 0; s < static_cast<state_id>(result.store_.size()); ++s) {
        result.store_.load(s, scratch.data());
        const std::uint64_t current_hash = result.store_.stored_hash(s);
        const std::vector<transition_id> enabled = std::move(enabled_of[s]);
        const bool full_cap_scan = root_over_cap && s == 0;

        const std::vector<transition_id>* expand = &enabled;
        if (stubborn) {
            stubborn->reduce(scratch.data(), enabled, stubborn_ws, reduced);
            expand = &reduced;
        }
        for (transition_id t : *expand) {
            // Fire t into scratch, updating the hash per touched place.
            std::uint64_t next_hash = current_hash;
            bool over_cap = false;
            for (const place_weight& in : net.inputs(t)) {
                std::int64_t& count = scratch[in.place.index()];
                next_hash ^= marking_store::component_mix(in.place.index(), count);
                count -= in.weight;
                next_hash ^= marking_store::component_mix(in.place.index(), count);
            }
            for (const place_weight& out : net.outputs(t)) {
                std::int64_t& count = scratch[out.place.index()];
                next_hash ^= marking_store::component_mix(out.place.index(), count);
                count += out.weight;
                next_hash ^= marking_store::component_mix(out.place.index(), count);
                over_cap |= count > cap;
            }
            if (full_cap_scan && !over_cap) {
                for (const std::int64_t count : scratch) {
                    if (count > cap) {
                        over_cap = true;
                        break;
                    }
                }
            }

            if (over_cap) {
                result.truncated_ = true;
            } else {
                const auto [to, inserted] =
                    result.store_.intern(scratch.data(), next_hash, options.max_markings);
                if (to == invalid_state) {
                    result.truncated_ = true;
                } else {
                    result.edges_.push_back({t, to});
                    if (inserted) {
                        // Incremental enabled set of the successor: statuses
                        // carry over except for the consumers of touched
                        // places, which are re-checked against scratch.
                        merged.clear();
                        detail::merge_enabled(net, enabled, affected[t.index()],
                                              scratch.data(), merged);
                        enabled_of.push_back(merged);
                    }
                }
            }

            // Revert scratch to the tokens of s for the next enabled t.
            for (const place_weight& in : net.inputs(t)) {
                scratch[in.place.index()] += in.weight;
            }
            for (const place_weight& out : net.outputs(t)) {
                scratch[out.place.index()] -= out.weight;
            }
        }
        result.edge_offsets_.push_back(result.edges_.size());
        if ((s & 0x1fff) == 0x1fff) {
            flush_progress();
        }
    }
    flush_progress();
    detail::flush_store_obs(result.store_);
    if (pager != nullptr) {
        pager->flush_obs();
    }
    if (result.truncated_ && obs::stats_enabled()) {
        obs::get_counter("pn.explore.truncations").add(1);
    }
    run_span.arg("states", static_cast<std::int64_t>(result.store_.size()));
    run_span.arg("edges", static_cast<std::int64_t>(result.edges_.size()));
    return result;
}

token_game::token_game(const petri_net& net)
    : net_(&net), tokens_(net.initial_marking_vector())
{
}

void token_game::reset()
{
    tokens_ = net_->initial_marking_vector();
}

bool token_game::enabled(transition_id t) const
{
    return detail::enabled_in(*net_, tokens_.data(), t);
}

bool token_game::try_fire(transition_id t)
{
    if (!enabled(t)) {
        return false;
    }
    for (const place_weight& in : net_->inputs(t)) {
        tokens_[in.place.index()] -= in.weight;
    }
    for (const place_weight& out : net_->outputs(t)) {
        tokens_[out.place.index()] += out.weight;
    }
    return true;
}

std::optional<std::size_t> token_game::run(const firing_sequence& sequence)
{
    for (std::size_t i = 0; i < sequence.size(); ++i) {
        if (!try_fire(sequence[i])) {
            return i;
        }
    }
    return std::nullopt;
}

bool token_game::at_initial() const
{
    return tokens_ == net_->initial_marking_vector();
}

} // namespace fcqss::pn
