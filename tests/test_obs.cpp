// Locks down the obs telemetry core: counters must be exact under any
// thread interleaving (the striping is an optimization, never an
// approximation), gauges keep high-water marks under contention, spans
// record exactly one event each with nothing dropped, everything is inert
// while the runtime flags are off, and a snapshot taken mid-exploration is
// internally consistent (monotone counters, final totals equal to the
// state space actually built).  This file runs under the ThreadSanitizer
// CI job, so the hammer tests double as a data-race net over the striped
// atomics and the trace rings.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "apps/atm/atm_net.hpp"
#include "obs/obs.hpp"
#include "pipeline/net_generator.hpp"
#include "pn/petri_net.hpp"
#include "pn/reachability.hpp"
#include "pn/state_space.hpp"
#include "qss/scheduler.hpp"

namespace fcqss::obs {
namespace {

/// Every test starts from zeroed metrics and disabled flags, and restores
/// the disabled state afterwards so obs tests cannot leak into each other
/// (the registry is process-global by design).
class obs_test : public ::testing::Test {
protected:
    void SetUp() override
    {
        set_stats_enabled(false);
        set_tracing_enabled(false);
        reset();
    }

    void TearDown() override
    {
        set_stats_enabled(false);
        set_tracing_enabled(false);
        reset();
    }
};

using obs_counters = obs_test;
using obs_spans = obs_test;
using obs_snapshot = obs_test;

double metric_value(const std::vector<metric>& rows, const std::string& name)
{
    for (const metric& m : rows) {
        if (m.name == name) {
            return m.value;
        }
    }
    ADD_FAILURE() << "metric not found: " << name;
    return -1;
}

bool has_metric(const std::vector<metric>& rows, const std::string& name)
{
    for (const metric& m : rows) {
        if (m.name == name) {
            return true;
        }
    }
    return false;
}

TEST_F(obs_counters, exact_totals_across_threads)
{
    set_stats_enabled(true);
    counter& hits = get_counter("test.hammer.hits");
    counter& bytes = get_counter("test.hammer.bytes", "bytes");

    constexpr int threads = 8;
    constexpr std::uint64_t adds_per_thread = 20000;
    {
        std::vector<std::jthread> pool;
        pool.reserve(threads);
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([&hits, &bytes] {
                for (std::uint64_t i = 0; i < adds_per_thread; ++i) {
                    hits.add(1);
                    bytes.add(3);
                }
            });
        }
    }

    EXPECT_EQ(hits.value(), threads * adds_per_thread);
    EXPECT_EQ(bytes.value(), threads * adds_per_thread * 3);
    EXPECT_EQ(hits.unit(), "count");
    EXPECT_EQ(bytes.unit(), "bytes");
}

TEST_F(obs_counters, exact_totals_under_concurrent_snapshot)
{
    set_stats_enabled(true);
    counter& c = get_counter("test.racy.reads");

    constexpr int threads = 4;
    constexpr std::uint64_t adds_per_thread = 50000;
    std::uint64_t last_seen = 0;
    {
        std::vector<std::jthread> pool;
        pool.reserve(threads);
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([&c] {
                for (std::uint64_t i = 0; i < adds_per_thread; ++i) {
                    c.add(1);
                }
            });
        }
        // Reader races the writers on purpose: every intermediate value must
        // be a plausible partial sum, and snapshot() must not crash or tear.
        for (int poll = 0; poll < 50; ++poll) {
            const std::uint64_t seen = c.value();
            EXPECT_GE(seen, last_seen) << "counter went backwards";
            EXPECT_LE(seen, threads * adds_per_thread);
            last_seen = seen;
            (void)snapshot();
        }
    }
    EXPECT_EQ(c.value(), threads * adds_per_thread);
}

TEST_F(obs_counters, inert_while_stats_disabled)
{
    counter& c = get_counter("test.off.counter");
    gauge& g = get_gauge("test.off.gauge");
    histogram& h = get_histogram("test.off.histogram");

    c.add(1000);
    g.set(42.0);
    g.set_max(99.0);
    h.record(7);

    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0.0);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
}

TEST_F(obs_counters, gauge_set_max_keeps_high_water_mark)
{
    set_stats_enabled(true);
    gauge& hwm = get_gauge("test.hwm", "jobs");

    constexpr int threads = 8;
    {
        std::vector<std::jthread> pool;
        pool.reserve(threads);
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([&hwm, t] {
                for (int i = 0; i < 10000; ++i) {
                    hwm.set_max(static_cast<double>(t * 10000 + i));
                }
            });
        }
    }
    EXPECT_EQ(hwm.value(), (threads - 1) * 10000 + 9999);
}

TEST_F(obs_counters, histogram_counts_sum_and_quantiles)
{
    set_stats_enabled(true);
    histogram& h = get_histogram("test.sizes", "transitions");
    std::uint64_t sum = 0;
    for (std::uint64_t v = 0; v < 100; ++v) {
        h.record(v);
        sum += v;
    }
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.sum(), sum);
    // Bucket quantiles are upper bounds of power-of-two buckets: the true
    // p50 of 0..99 is 50, whose bucket tops out at 63.
    EXPECT_GE(h.quantile(0.5), 50u);
    EXPECT_LE(h.quantile(0.5), 63u);
    EXPECT_GE(h.quantile(0.99), h.quantile(0.5));

    const std::vector<metric> rows = snapshot();
    EXPECT_EQ(metric_value(rows, "test.sizes.count"), 100.0);
    EXPECT_EQ(metric_value(rows, "test.sizes.sum"), static_cast<double>(sum));
    EXPECT_TRUE(has_metric(rows, "test.sizes.mean"));
    EXPECT_TRUE(has_metric(rows, "test.sizes.p50"));
    EXPECT_TRUE(has_metric(rows, "test.sizes.p99"));
}

TEST_F(obs_counters, reset_zeroes_values_but_keeps_registrations)
{
    set_stats_enabled(true);
    counter& c = get_counter("test.reset.counter");
    c.add(5);
    ASSERT_EQ(c.value(), 5u);

    reset();
    set_stats_enabled(true);

    // The same reference stays valid and usable after reset.
    EXPECT_EQ(c.value(), 0u);
    c.add(2);
    EXPECT_EQ(c.value(), 2u);
    EXPECT_EQ(&get_counter("test.reset.counter"), &c);
}

TEST_F(obs_counters, metrics_jsonl_uses_bench_row_schema)
{
    set_stats_enabled(true);
    get_counter("test.jsonl.rows").add(7);
    const std::string jsonl = metrics_jsonl("obs");
    EXPECT_NE(jsonl.find("{\"bench\":\"obs\",\"label\":\"test.jsonl.rows\","
                         "\"unit\":\"count\",\"value\":\"7\"}"),
              std::string::npos)
        << jsonl;
    // One object per line, every line a self-contained JSON object.
    std::size_t begin = 0;
    while (begin < jsonl.size()) {
        std::size_t end = jsonl.find('\n', begin);
        if (end == std::string::npos) {
            end = jsonl.size();
        }
        const std::string line = jsonl.substr(begin, end - begin);
        if (!line.empty()) {
            EXPECT_EQ(line.front(), '{') << line;
            EXPECT_EQ(line.back(), '}') << line;
        }
        begin = end + 1;
    }
}

TEST_F(obs_spans, one_event_per_span_nothing_dropped)
{
    set_tracing_enabled(true);
    constexpr int threads = 8;
    constexpr int spans_per_thread = 500;
    {
        std::vector<std::jthread> pool;
        pool.reserve(threads);
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([] {
                for (int i = 0; i < spans_per_thread; ++i) {
                    span s("test.work", "index", i);
                    s.arg("phase", 1);
                }
            });
        }
    }
    EXPECT_EQ(trace_event_count(),
              static_cast<std::size_t>(threads) * spans_per_thread);
    EXPECT_EQ(trace_dropped_count(), 0u);
}

TEST_F(obs_spans, inert_while_tracing_disabled)
{
    {
        span s("test.ignored", "key", 1);
        s.arg("other", 2);
    }
    EXPECT_EQ(trace_event_count(), 0u);
    EXPECT_EQ(trace_dropped_count(), 0u);
    EXPECT_NE(chrome_trace_json().find("\"traceEvents\""), std::string::npos);
}

TEST_F(obs_snapshot, mid_exploration_snapshot_is_monotone_and_final_totals_match)
{
    // A finite choice-heavy net large enough for several BFS levels, so the
    // per-level flushes actually land while the poller is watching.
    pipeline::generator_options options;
    options.family = pipeline::net_family::choice_heavy;
    options.sources = 3;
    options.depth = 4;
    options.token_load = 1;
    options.source_credit = 1;
    pipeline::net_generator generator(7, options);
    const pn::petri_net net = generator.next();

    set_stats_enabled(true);

    pn::reachability_options reach;
    reach.threads = 4;
    reach.max_markings = 200000;

    std::uint64_t last_states = 0;
    std::uint64_t last_edges = 0;
    pn::state_space space = [&] {
        pn::state_space result;
        std::jthread explorer(
            [&] { result = pn::explore_space(net, reach); });
        // Poll while exploration runs: per-level flushes must only grow.
        for (int poll = 0; poll < 200; ++poll) {
            const std::vector<metric> rows = snapshot();
            // The two counters register one after the other, so a poll can
            // land between the registrations.
            if (has_metric(rows, "pn.explore.states") &&
                has_metric(rows, "pn.explore.edges")) {
                const auto states =
                    static_cast<std::uint64_t>(metric_value(rows, "pn.explore.states"));
                const auto edges =
                    static_cast<std::uint64_t>(metric_value(rows, "pn.explore.edges"));
                EXPECT_GE(states, last_states) << "states went backwards";
                EXPECT_GE(edges, last_edges) << "edges went backwards";
                last_states = states;
                last_edges = edges;
            }
            std::this_thread::yield();
        }
        return result;
    }();

    ASSERT_FALSE(space.truncated());
    ASSERT_GT(space.state_count(), 100u);

    const std::vector<metric> rows = snapshot();
    EXPECT_EQ(metric_value(rows, "pn.explore.states"),
              static_cast<double>(space.state_count()));
    EXPECT_EQ(metric_value(rows, "pn.explore.edges"),
              static_cast<double>(space.edge_count()));
    EXPECT_GT(metric_value(rows, "pn.store.hash_probes"), 0.0);
    EXPECT_GT(metric_value(rows, "pn.store.inserts"), 0.0);
    EXPECT_GE(metric_value(rows, "pn.explore.states"),
              metric_value(rows, "pn.explore.levels"));
    // Renumbering, the CSR edge build and the final table build are timed.
    EXPECT_GT(metric_value(rows, "pn.par.phase_c_ns"), 0.0);
    EXPECT_GT(metric_value(rows, "pn.par.phase_d_ns"), 0.0);
    EXPECT_GT(metric_value(rows, "pn.par.table_ns"), 0.0);

    // On a non-truncated run every state was interned by exactly one shard.
    double shard_sum = 0;
    for (int s = 0;; ++s) {
        const std::string name = "pn.par.shard." + std::to_string(s) + ".states";
        if (!has_metric(rows, name)) {
            break;
        }
        shard_sum += metric_value(rows, name);
    }
    EXPECT_EQ(shard_sum, static_cast<double>(space.state_count()));
}

TEST_F(obs_snapshot, qss_counters_pin_the_atm_enumeration)
{
    // The ATM net: 11 choice clusters, 4608 allocations, 120 distinct
    // T-reductions.  The enumeration reduces 109 decided prefixes and one
    // allocation per distinct reduction — no leaf is a duplicate.  All 120
    // checks share the net's one T-invariant enumeration.
    const pn::petri_net net = atm::build_atm_net();
    set_stats_enabled(true);
    const qss::qss_result result = qss::quasi_static_schedule(net);
    set_stats_enabled(false);
    ASSERT_TRUE(result.schedulable);

    const std::vector<metric> rows = snapshot();
    EXPECT_EQ(metric_value(rows, "qss.schedules"), 1.0);
    EXPECT_EQ(metric_value(rows, "qss.allocation_space"), 4608.0);
    EXPECT_EQ(metric_value(rows, "qss.prefix_reductions"), 109.0);
    EXPECT_EQ(metric_value(rows, "qss.leaf_reductions"), 120.0);
    EXPECT_EQ(metric_value(rows, "qss.distinct_reductions"), 120.0);
    EXPECT_GT(metric_value(rows, "qss.enumerate_ns"), 0.0);
    EXPECT_GT(metric_value(rows, "qss.check_ns"), 0.0);
    EXPECT_EQ(metric_value(rows, "pn.invariants.t_runs"), 1.0);
    // The check's two parts are timed inside its interval.
    EXPECT_GT(metric_value(rows, "qss.invariant_ns"), 0.0);
    EXPECT_GT(metric_value(rows, "qss.simulate_ns"), 0.0);
    EXPECT_LE(metric_value(rows, "qss.invariant_ns") +
                  metric_value(rows, "qss.simulate_ns"),
              metric_value(rows, "qss.check_ns"));

    // Stats off: a second schedule leaves every total where it was.
    (void)qss::quasi_static_schedule(net);
    EXPECT_EQ(get_counter("qss.schedules").value(), 1u);
    EXPECT_EQ(get_counter("qss.leaf_reductions").value(), 120u);
    EXPECT_EQ(get_counter("pn.invariants.t_runs").value(), 1u);
}

TEST_F(obs_snapshot, sequential_explore_flushes_matching_totals)
{
    pipeline::generator_options options;
    options.family = pipeline::net_family::free_choice;
    options.sources = 2;
    options.depth = 4;
    options.token_load = 1;
    options.source_credit = 1;
    pipeline::net_generator generator(11, options);
    const pn::petri_net net = generator.next();

    set_stats_enabled(true);
    pn::reachability_options reach;
    reach.threads = 1;
    reach.max_markings = 100000;
    const pn::state_space space = pn::explore_space(net, reach);
    ASSERT_FALSE(space.truncated());

    const std::vector<metric> rows = snapshot();
    EXPECT_EQ(metric_value(rows, "pn.explore.states"),
              static_cast<double>(space.state_count()));
    EXPECT_EQ(metric_value(rows, "pn.explore.edges"),
              static_cast<double>(space.edge_count()));
    EXPECT_GT(metric_value(rows, "pn.store.hash_probes"), 0.0);
}

} // namespace
} // namespace fcqss::obs
