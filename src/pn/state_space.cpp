#include "pn/state_space.hpp"

#include <algorithm>
#include <optional>

#include "exec/chunk_pager.hpp"
#include "graph/digraph.hpp"
#include "graph/scc.hpp"
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

// The ltl_x ignoring fix-up.  The reduced graph built by D1/D2 sets
// alone can starve a transition forever: a cycle of cheap closures keeps
// expanding one process while another stays enabled and untouched, which
// breaks liveness and fireability verdicts.  Ignoring can only happen along
// an infinite path, and every infinite path of a finite graph is eventually
// trapped in one cycle-capable SCC, so the SCC-local proviso below — every
// transition enabled somewhere in such an SCC fires somewhere in it — is
// exactly "no transition is ignored forever".  (Trivial SCCs without a
// self-loop cannot trap a path and are exempt, which is what keeps the
// reduction intact on acyclic regions.)  The pass works on mutable
// per-state edge rows and rebuilds the CSR once at the end; it expands one
// state per offending SCC per round and re-explores only the freshly
// discovered states, never restarting from scratch.
void enforce_nonignoring(const petri_net& net, const stubborn_reduction& reduction,
                         state_space& space, const reachability_options& options)
{
    obs::span pass_span("explore.nonignoring");
    std::uint64_t obs_rounds = 0;
    std::uint64_t obs_reexpansions = 0;
    const std::size_t width = net.place_count();
    const std::int64_t cap = options.max_tokens_per_place;
    marking_store& store = space.store_;

    // Mutable per-state edge rows, materialized lazily on the first
    // offender; until then every read goes straight to the engine's CSR.
    // The common case — an acyclic reduced graph, or one whose
    // cycle-capable SCCs already fire everything — pays one Tarjan and no
    // copy at all.  Once materialized, rows.size() is the number of
    // *expanded* states; trailing freshly-interned states are pending.
    std::vector<std::vector<state_space_edge>> rows;
    bool materialized = false;
    const auto successors_of =
        [&](state_id s) -> std::span<const state_space_edge> {
        if (materialized) {
            return {rows[s].data(), rows[s].size()};
        }
        return space.successors(s);
    };

    // Enabled sets, computed lazily and cached — a state's tokens never
    // change, and only cycle-capable SCC members and re-expanded states
    // ever need theirs, so acyclic regions cost nothing here.
    std::vector<std::vector<transition_id>> enabled_cache(space.state_count());
    std::vector<std::uint8_t> enabled_known(space.state_count(), 0);
    std::vector<std::int64_t> probe(width);
    const auto enabled_of =
        [&](state_id s) -> const std::vector<transition_id>& {
        if (!enabled_known[s]) {
            enabled_known[s] = 1;
            store.load(s, probe.data());
            for (transition_id t : net.transitions()) {
                if (enabled_in(net, probe.data(), t)) {
                    enabled_cache[s].push_back(t);
                }
            }
        }
        return enabled_cache[s];
    };

    std::vector<std::uint8_t> fully_expanded(space.state_count(), 0);

    // Fires t from s, whose counts the caller has loaded into `tokens`,
    // and interns the successor at once, appending the edge to rows[s].
    // Callers fire in (state id, transition id) order, which fixes the ids
    // of fresh states.  Budget-dropped successors (token cap, state budget)
    // mark the space truncated, exactly like in-engine expansion.  The
    // full-vector cap scan is equivalent to the engines' per-touched-place
    // check (every interned parent except possibly the root already obeys
    // the cap) and also covers the over-cap-root case.
    std::vector<std::int64_t> tokens(width);
    std::vector<std::int64_t> next(width);
    const auto fire_and_intern = [&](state_id s, transition_id t) {
        next = tokens;
        for (const place_weight& in : net.inputs(t)) {
            next[in.place.index()] -= in.weight;
        }
        for (const place_weight& out : net.outputs(t)) {
            next[out.place.index()] += out.weight;
        }
        for (const std::int64_t count : next) {
            if (count > cap) {
                space.truncated_ = true;
                return;
            }
        }
        const state_id to =
            store
                .intern(next.data(), marking_store::hash_tokens(next.data(), width),
                        options.max_markings)
                .first;
        if (to == invalid_state) {
            space.truncated_ = true;
            return;
        }
        rows[s].push_back({t, to});
    };

    // Expands every pending state (freshly interned, no row yet) with the
    // normal per-state reduction, in id order; expansion may intern more,
    // which the next pass of the loop picks up.
    stubborn_workspace ws;
    std::vector<transition_id> reduced;
    const auto expand_tail = [&] {
        while (rows.size() < store.size()) {
            const std::size_t begin = rows.size();
            const std::size_t end = store.size();
            rows.resize(end);
            enabled_cache.resize(end);
            enabled_known.resize(end, 0);
            fully_expanded.resize(end, 0);
            for (state_id s = static_cast<state_id>(begin);
                 s < static_cast<state_id>(end); ++s) {
                const std::vector<transition_id>& enabled = enabled_of(s);
                store.load(s, tokens.data());
                reduction.reduce(tokens.data(), enabled, ws, reduced);
                for (const transition_id t : reduced) {
                    fire_and_intern(s, t);
                }
                fully_expanded[s] = reduced.size() == enabled.size() ? 1 : 0;
            }
        }
    };

    std::vector<std::uint8_t> fired(net.transition_count(), 0);
    for (;;) {
        ++obs_rounds;
        const std::size_t states = materialized ? rows.size() : space.state_count();
        graph::digraph state_graph(states);
        for (state_id s = 0; s < static_cast<state_id>(states); ++s) {
            for (const state_space_edge& edge : successors_of(s)) {
                state_graph.add_edge(s, edge.to);
            }
        }
        const graph::scc_result sccs =
            graph::strongly_connected_components(state_graph);

        std::vector<state_id> offenders;
        for (std::size_t c = 0; c < sccs.component_count(); ++c) {
            const std::vector<std::size_t>& members = sccs.members[c];
            bool cyclic = members.size() > 1;
            if (!cyclic) {
                for (const state_space_edge& edge :
                     successors_of(static_cast<state_id>(members.front()))) {
                    cyclic |= static_cast<std::size_t>(edge.to) == members.front();
                }
            }
            if (!cyclic) {
                continue;
            }
            std::fill(fired.begin(), fired.end(), 0);
            for (const std::size_t v : members) {
                for (const state_space_edge& edge :
                     successors_of(static_cast<state_id>(v))) {
                    fired[edge.via.index()] = 1;
                }
            }
            // The offender: the smallest-id member enabling an ignored
            // transition that is not fully expanded yet.  When every such
            // member is already fully expanded, the missing edges were
            // budget-dropped — the space is truncated and the verdicts
            // downstream are unknown anyway, so the SCC is left alone.
            state_id pick = invalid_state;
            for (const std::size_t v : members) {
                if (fully_expanded[v]) {
                    continue;
                }
                for (const transition_id t : enabled_of(static_cast<state_id>(v))) {
                    if (!fired[t.index()]) {
                        pick = static_cast<state_id>(v);
                        break;
                    }
                }
                if (pick != invalid_state) {
                    break;
                }
            }
            if (pick != invalid_state) {
                offenders.push_back(pick);
            }
        }
        if (offenders.empty()) {
            break;
        }
        obs_reexpansions += offenders.size();
        if (!materialized) {
            rows.resize(space.state_count());
            for (state_id s = 0; s < static_cast<state_id>(rows.size()); ++s) {
                const std::span<const state_space_edge> edges = space.successors(s);
                rows[s].assign(edges.begin(), edges.end());
            }
            materialized = true;
        }
        std::sort(offenders.begin(), offenders.end());
        // Fire every offender's missing transitions (its enabled set is
        // already cached — the pick above computed it), in (offender id,
        // transition id) order.
        for (const state_id s : offenders) {
            fully_expanded[s] = 1;
            store.load(s, tokens.data());
            for (const transition_id t : enabled_cache[s]) {
                bool present = false;
                for (const state_space_edge& edge : rows[s]) {
                    present |= edge.via == t;
                }
                if (!present) {
                    fire_and_intern(s, t);
                }
            }
            std::sort(rows[s].begin(), rows[s].end(),
                      [](const state_space_edge& a, const state_space_edge& b) {
                          return a.via < b.via;
                      });
        }
        expand_tail();
    }

    if (obs::stats_enabled()) {
        static obs::counter& rounds = obs::get_counter("pn.ltlx.rounds");
        static obs::counter& reexpansions = obs::get_counter("pn.ltlx.reexpansions");
        rounds.add(obs_rounds);
        reexpansions.add(obs_reexpansions);
    }
    pass_span.arg("rounds", static_cast<std::int64_t>(obs_rounds));
    pass_span.arg("reexpansions", static_cast<std::int64_t>(obs_reexpansions));

    if (!materialized) {
        return; // nothing was ever ignored: the engine's CSR stands as-is
    }
    // Rebuild the CSR from the final rows.
    space.edges_.clear();
    space.edge_offsets_.clear();
    space.edge_offsets_.push_back(0);
    for (const std::vector<state_space_edge>& row : rows) {
        space.edges_.append(row.data(), row.size());
        space.edge_offsets_.push_back(space.edges_.size());
    }
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
    if (options.reduction == reduction_kind::ltl_x) {
        flush_progress();
        detail::enforce_nonignoring(net, *stubborn, result, options);
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
