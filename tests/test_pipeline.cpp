// Tests for the batch-synthesis pipeline subsystem: executor/job-queue
// plumbing (the indexed batch and the resident try_submit / close entry
// points), generator determinism, thread-count-independent batch results,
// and stage short-circuiting on rejected nets.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <latch>
#include <set>
#include <stdexcept>
#include <thread>

#include "base/error.hpp"
#include "exec/executor.hpp"
#include "exec/job_queue.hpp"
#include "nets/paper_nets.hpp"
#include "obs/obs.hpp"
#include "pipeline/net_generator.hpp"
#include "pipeline/service.hpp"
#include "pipeline/synthesis_pipeline.hpp"
#include "pn/net_class.hpp"
#include "pnio/writer.hpp"

namespace fcqss::pipeline {
namespace {

using exec::executor;
using exec::job_queue;

TEST(job_queue, push_pop_close)
{
    job_queue<int> queue(4);
    EXPECT_TRUE(queue.push(1));
    EXPECT_TRUE(queue.push(2));
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.pop(), 1);
    queue.close();
    // Closed queues drain what they hold, refuse new items, then run dry.
    EXPECT_FALSE(queue.push(3));
    EXPECT_EQ(queue.pop(), 2);
    EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(job_queue, bounded_push_blocks_until_pop)
{
    job_queue<int> queue(1);
    EXPECT_TRUE(queue.push(1));
    std::atomic<bool> second_pushed{false};
    std::jthread producer([&] {
        queue.push(2);
        second_pushed = true;
    });
    EXPECT_FALSE(second_pushed.load());
    EXPECT_EQ(queue.pop(), 1);
    EXPECT_EQ(queue.pop(), 2);
    producer.join();
    EXPECT_TRUE(second_pushed.load());
}

TEST(executor, runs_every_index_once)
{
    executor pool(4);
    EXPECT_EQ(pool.jobs(), 4u);
    std::vector<std::atomic<int>> hits(100);
    pool.for_each_index(hits.size(), [&](std::size_t i) { hits[i]++; });
    for (const auto& hit : hits) {
        EXPECT_EQ(hit.load(), 1);
    }
    // The pool is reusable for a second batch.
    pool.for_each_index(hits.size(), [&](std::size_t i) { hits[i]++; });
    EXPECT_EQ(hits[0].load(), 2);
}

TEST(executor, propagates_job_exceptions_after_draining)
{
    executor pool(2);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.for_each_index(10,
                                     [&](std::size_t i) {
                                         ran++;
                                         if (i == 3) {
                                             throw std::runtime_error("boom");
                                         }
                                     }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 10); // one bad job never cancels the rest
}

// Occupies the pool's one worker until `gate` opens; returns once the
// worker has picked the blocker up, so the queue is empty again.  Both
// latches must outlive the pool's workers.
void hold_the_worker(executor& pool, std::latch& started, std::latch& gate)
{
    ASSERT_TRUE(pool.try_submit([&] {
        started.count_down();
        gate.wait();
    }));
    started.wait();
}

TEST(executor, try_submit_fails_fast_when_the_queue_is_full)
{
    std::latch started(1);
    std::latch gate(1);
    executor pool(1, 1);
    hold_the_worker(pool, started, gate);
    std::atomic<int> queued_runs{0};
    std::atomic<int> refused_runs{0};
    EXPECT_TRUE(pool.try_submit([&] { queued_runs++; }));
    EXPECT_EQ(pool.queue_depth(), 1u);
    // The slot is taken: this returns false at once instead of waiting.
    EXPECT_FALSE(pool.try_submit([&] { refused_runs++; }));
    gate.count_down();
    pool.close();
    EXPECT_EQ(queued_runs.load(), 1);
    EXPECT_EQ(refused_runs.load(), 0);
}

TEST(executor, close_runs_every_queued_job_then_refuses_work)
{
    std::latch started(1);
    std::latch gate(1);
    executor pool(1, 8);
    hold_the_worker(pool, started, gate);
    std::atomic<int> ran{0};
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(pool.try_submit([&] { ran++; }));
    }
    gate.count_down();
    pool.close();
    EXPECT_EQ(ran.load(), 5);
    EXPECT_FALSE(pool.try_submit([&] { ran++; }));
    pool.close(); // a second close is a no-op
    EXPECT_EQ(pool.jobs(), 1u);

    executor shared(2, 4);
    {
        std::jthread a([&] { shared.close(); });
        std::jthread b([&] { shared.close(); });
    }
    EXPECT_FALSE(shared.try_submit([] {}));
}

TEST(executor, counts_a_submitted_job_that_throws_and_keeps_running)
{
    obs::set_stats_enabled(true);
    obs::counter& escaped = obs::get_counter("exec.pool.escaped_exceptions");
    const std::uint64_t before = escaped.value();
    {
        std::latch next_ran(1);
        executor pool(1, 4);
        ASSERT_TRUE(pool.try_submit([] { throw std::runtime_error("leak"); }));
        ASSERT_TRUE(pool.try_submit([&] { next_ran.count_down(); }));
        next_ran.wait();
    }
    EXPECT_EQ(escaped.value(), before + 1);
    obs::set_stats_enabled(false);
}

TEST(executor, for_each_index_blocks_on_a_queue_smaller_than_the_batch)
{
    executor pool(2, 1);
    std::vector<std::atomic<int>> hits(100);
    pool.for_each_index(hits.size(), [&](std::size_t i) { hits[i]++; });
    for (const auto& hit : hits) {
        EXPECT_EQ(hit.load(), 1);
    }
}

TEST(net_generator, deterministic_under_fixed_seed)
{
    for (const net_family family :
         {net_family::marked_graph, net_family::free_choice, net_family::choice_heavy,
          net_family::client_server, net_family::layered_pipeline,
          net_family::bursty_multirate}) {
        generator_options options;
        options.family = family;
        options.token_load = 2;
        options.defect_percent = 20;
        net_generator a(42, options);
        net_generator b(42, options);
        for (int i = 0; i < 10; ++i) {
            EXPECT_EQ(pnio::write_net(a.next()), pnio::write_net(b.next()))
                << "family " << to_string(family) << ", net " << i;
        }
    }
}

// Pins the generated streams across commits, not only within one run:
// perfbench's workloads, the fuzz seed range and tests/corpus are all built
// from them, so a change to a shape constant or to the order of PRNG draws
// must show up here.  The hashes are content_hash (FNV-1a of write_net) of
// the first 5 nets of each family at seed 7.
TEST(net_generator, streams_are_pinned_across_commits)
{
    struct pinned_stream {
        net_family family;
        std::uint64_t hashes[5];
    };
    const pinned_stream defaults[] = {
        {net_family::marked_graph,
         {0xce6a2d2ef28a6e67ULL, 0xd84c7e47f99d8a37ULL, 0xbc0a51ab1dcc0337ULL,
          0xe9ed687f213b09a5ULL, 0x9168cebe5e88af16ULL}},
        {net_family::free_choice,
         {0x283b76dac8b02b42ULL, 0x330158941dd89a39ULL, 0x727f4cdbf1eabcf7ULL,
          0x771a84f3346f1e9bULL, 0x4f1c5d85baddfdb4ULL}},
        {net_family::choice_heavy,
         {0x52003ce669f69b95ULL, 0x5fe476eaef111d4cULL, 0xa87158c528c84e84ULL,
          0x9cbfafb1c096b900ULL, 0x91cb875c6de23261ULL}},
        {net_family::client_server,
         {0xf8b2922d3cbc22edULL, 0xf40f28abb8936e44ULL, 0x8afcc2bb50a9a8afULL,
          0x8c2f8f1a98b93716ULL, 0x1be13ac455071359ULL}},
        {net_family::layered_pipeline,
         {0x6859812cfeb0de7bULL, 0x3e9325ae80c67dd2ULL, 0x48cd5ce87da1fc69ULL,
          0x343dc1f9d6a32a3cULL, 0x4724b423dd7ed5afULL}},
        {net_family::bursty_multirate,
         {0xed562e34e53d22bbULL, 0xcd01825a09fe1e52ULL, 0x8dd0bfe752ea72a1ULL,
          0xcf233cb2db565938ULL, 0xafdc14a8dec3ad47ULL}},
    };
    const pinned_stream loaded[] = {
        {net_family::marked_graph,
         {0x334efe07a1d18bcdULL, 0x50d5be8a15538ca9ULL, 0x639609b8f952a4e0ULL,
          0x9011eb30439f4cb1ULL, 0x9f6c0ae7c9ad070dULL}},
        {net_family::free_choice,
         {0x01e0be014257a409ULL, 0xde826e70ece7236eULL, 0x35e5840d41b03cccULL,
          0x52dfa155265aa662ULL, 0x23f4ca1b3a7ce8bcULL}},
        {net_family::choice_heavy,
         {0xdf8c2570492b18d3ULL, 0x33c94b5ffabc097eULL, 0x9142e3c6ed463b91ULL,
          0x6cc69b36a460e588ULL, 0xc1cd4cfaccf092f7ULL}},
        {net_family::client_server,
         {0xb9216b2793b2e8c4ULL, 0xca8595e1b3cade29ULL, 0x25cdad56cd7caec6ULL,
          0xc321c828c9e6ef34ULL, 0x743d1d7bc3df6e30ULL}},
        {net_family::layered_pipeline,
         {0x3746bcdfa08a3f92ULL, 0xda5e757a38059075ULL, 0xafa419d5ba7ef113ULL,
          0xcf91a858bdca32f0ULL, 0xb6e37171cd7dfeb0ULL}},
        {net_family::bursty_multirate,
         {0x64642d4dc3dc1481ULL, 0x337a718de4b2150aULL, 0xcc8e206699192904ULL,
          0x02704575146ffbbdULL, 0xe9db32258a2a06f2ULL}},
    };
    const auto expect_stream = [](const pinned_stream& pin, generator_options options,
                                  const char* label) {
        options.family = pin.family;
        net_generator generator(7, options);
        for (int i = 0; i < 5; ++i) {
            EXPECT_EQ(content_hash(generator.next()), pin.hashes[i])
                << label << " " << to_string(pin.family) << ", net " << i;
        }
    };
    for (const pinned_stream& pin : defaults) {
        expect_stream(pin, {}, "defaults");
    }
    for (const pinned_stream& pin : loaded) {
        expect_stream(pin, {.token_load = 2, .defect_percent = 10, .source_credit = 1},
                      "loaded");
    }
}

TEST(net_generator, seeds_and_stream_positions_differ)
{
    net_generator a(1);
    net_generator b(2);
    const pn::petri_net a0 = a.next();
    const pn::petri_net a1 = a.next();
    EXPECT_NE(pnio::write_net(a0), pnio::write_net(b.next()));
    EXPECT_NE(pnio::write_net(a0), pnio::write_net(a1));
    EXPECT_EQ(a0.name(), "gen_fc_s1_n0");
    EXPECT_EQ(a1.name(), "gen_fc_s1_n1");
    EXPECT_EQ(a.generated(), 2u);
}

TEST(net_generator, families_have_their_shape)
{
    generator_options mg;
    mg.family = net_family::marked_graph;
    net_generator gen(7, mg);
    for (int i = 0; i < 5; ++i) {
        const pn::petri_net net = gen.next();
        EXPECT_TRUE(pn::is_marked_graph(net)) << net.name();
    }

    generator_options heavy;
    heavy.family = net_family::choice_heavy;
    heavy.defect_percent = 0;
    net_generator gen2(7, heavy);
    std::size_t choices = 0;
    for (int i = 0; i < 5; ++i) {
        const pn::petri_net net = gen2.next();
        EXPECT_TRUE(pn::is_free_choice(net)) << net.name();
        for (const pn::place_id p : net.places()) {
            choices += net.consumers(p).size() > 1;
        }
    }
    EXPECT_GT(choices, 0u);
}

TEST(net_generator, family_names_are_stable)
{
    EXPECT_STREQ(to_string(net_family::marked_graph), "mg");
    EXPECT_STREQ(to_string(net_family::free_choice), "fc");
    EXPECT_STREQ(to_string(net_family::choice_heavy), "choice");
    EXPECT_STREQ(to_string(net_family::client_server), "client");
    EXPECT_STREQ(to_string(net_family::layered_pipeline), "layered");
    EXPECT_STREQ(to_string(net_family::bursty_multirate), "bursty");
}

TEST(net_generator, production_families_have_their_shape)
{
    // client_server: the shared teller pool is a place with several
    // consumers whose presets differ — deliberately non-free-choice.
    generator_options cs;
    cs.family = net_family::client_server;
    cs.defect_percent = 0;
    net_generator client_gen(5, cs);
    for (int i = 0; i < 4; ++i) {
        const pn::petri_net net = client_gen.next();
        EXPECT_FALSE(pn::is_free_choice(net)) << net.name();
        const pn::place_id pool = net.find_place("tellers");
        ASSERT_TRUE(pool.valid()) << net.name();
        EXPECT_GT(net.consumers(pool).size(), 1u);
        EXPECT_EQ(net.initial_tokens(pool), cs.depth);
    }

    // layered_pipeline: fan-out/fan-in with matched weights, every place a
    // single producer/consumer pair — a marked graph wider than `mg`.
    generator_options lp;
    lp.family = net_family::layered_pipeline;
    lp.defect_percent = 0;
    net_generator layered_gen(5, lp);
    for (int i = 0; i < 4; ++i) {
        const pn::petri_net net = layered_gen.next();
        EXPECT_TRUE(pn::is_marked_graph(net)) << net.name();
    }

    // bursty_multirate: weighted burst arcs feed buffers drained one token
    // at a time, so some arc weight exceeds 1 on every net.
    generator_options bm;
    bm.family = net_family::bursty_multirate;
    bm.defect_percent = 0;
    net_generator bursty_gen(5, bm);
    for (int i = 0; i < 4; ++i) {
        const pn::petri_net net = bursty_gen.next();
        bool weighted = false;
        for (const pn::transition_id t : net.transitions()) {
            for (const pn::place_weight& out : net.outputs(t)) {
                weighted |= out.weight > 1;
            }
        }
        EXPECT_TRUE(weighted) << net.name();
    }
}

TEST(net_generator, production_families_reach_clean_pipeline_verdicts)
{
    // No production-shaped net may escape as pipeline_status::failed: every
    // one either synthesizes or is rejected by a typed stage verdict.
    const synthesis_pipeline pipe;
    std::size_t rejected_client = 0;
    for (const net_family family :
         {net_family::client_server, net_family::layered_pipeline,
          net_family::bursty_multirate}) {
        generator_options options;
        options.family = family;
        options.source_credit = 1;
        net_generator gen(17, options);
        for (int i = 0; i < 4; ++i) {
            const pipeline_result r = pipe.run_one(net_source::from_net(gen.next()));
            EXPECT_NE(r.status, pipeline_status::failed)
                << to_string(family) << ": " << r.diagnosis;
            if (family == net_family::client_server) {
                rejected_client += r.status == pipeline_status::not_free_choice;
            }
        }
    }
    EXPECT_EQ(rejected_client, 4u); // the shared pool always leaves the class
}

TEST(net_generator, defects_produce_non_free_choice_nets)
{
    generator_options options;
    options.defect_percent = 100;
    for (const net_family family : {net_family::marked_graph, net_family::free_choice}) {
        options.family = family;
        net_generator gen(11, options);
        for (int i = 0; i < 3; ++i) {
            EXPECT_FALSE(pn::is_free_choice(gen.next()));
        }
    }
}

TEST(net_generator, rejects_bad_options)
{
    generator_options options;
    options.sources = 0;
    EXPECT_THROW(net_generator(1, options), model_error);
    options.sources = 1;
    options.defect_percent = 101;
    EXPECT_THROW(net_generator(1, options), model_error);
}

std::vector<net_source> mixed_workload(std::size_t count)
{
    generator_options options;
    options.token_load = 2;
    options.defect_percent = 25; // mix of synthesized and rejected nets
    net_generator generator(123, options);
    std::vector<net_source> sources;
    sources.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        sources.push_back(net_source::from_net(generator.next()));
    }
    return sources;
}

TEST(synthesis_pipeline, batch_results_independent_of_thread_count)
{
    const std::vector<net_source> sources = mixed_workload(32);

    pipeline_options serial;
    serial.jobs = 1;
    pipeline_options parallel;
    parallel.jobs = 8;

    const batch_report a = synthesis_pipeline(serial).run(sources);
    const batch_report b = synthesis_pipeline(parallel).run(sources);
    EXPECT_EQ(a.jobs, 1u);
    EXPECT_EQ(b.jobs, 8u);
    ASSERT_EQ(a.results.size(), sources.size());
    ASSERT_EQ(b.results.size(), sources.size());

    std::set<pipeline_status> seen;
    for (std::size_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(a.results[i].index, i);
        EXPECT_EQ(a.results[i].name, b.results[i].name);
        EXPECT_EQ(a.results[i].status, b.results[i].status) << a.results[i].name;
        EXPECT_EQ(a.results[i].diagnosis, b.results[i].diagnosis);
        EXPECT_EQ(a.results[i].cycles, b.results[i].cycles);
        EXPECT_EQ(a.results[i].tasks, b.results[i].tasks);
        EXPECT_EQ(a.results[i].code_bytes, b.results[i].code_bytes);
        seen.insert(a.results[i].status);
    }
    // The defect knob guarantees the batch exercises both outcomes.
    EXPECT_TRUE(seen.count(pipeline_status::ok));
    EXPECT_TRUE(seen.count(pipeline_status::not_free_choice));

    EXPECT_FALSE(a.summary().empty());
    EXPECT_GT(a.nets_per_second(), 0.0);
}

TEST(synthesis_pipeline, short_circuits_non_free_choice)
{
    const synthesis_pipeline pipe;
    const pipeline_result r = pipe.run_one(net_source::from_net(nets::figure_1b()));
    EXPECT_EQ(r.status, pipeline_status::not_free_choice);
    EXPECT_FALSE(r.diagnosis.empty());
    EXPECT_EQ(r.klass, pn::net_class::general);
    // Later stages never ran.
    EXPECT_EQ(r.timings[pipeline_stage::schedule], 0.0);
    EXPECT_EQ(r.timings[pipeline_stage::partition], 0.0);
    EXPECT_EQ(r.timings[pipeline_stage::codegen], 0.0);
    EXPECT_EQ(r.code_bytes, 0u);
}

TEST(synthesis_pipeline, diagnoses_fig7_inconsistent_net)
{
    const synthesis_pipeline pipe;
    const pipeline_result r = pipe.run_one(net_source::from_net(nets::figure_7()));
    EXPECT_EQ(r.status, pipeline_status::not_schedulable);
    EXPECT_FALSE(r.diagnosis.empty());
    EXPECT_GT(r.allocations, 0u); // scheduling ran and produced the diagnosis
    EXPECT_EQ(r.timings[pipeline_stage::codegen], 0.0);
}

TEST(synthesis_pipeline, synthesizes_paper_nets_end_to_end)
{
    pipeline_options options;
    options.keep_code = true;
    const synthesis_pipeline pipe(options);
    for (const pn::petri_net& net :
         {nets::figure_2(), nets::figure_3a(), nets::figure_4(), nets::figure_5()}) {
        const pipeline_result r = pipe.run_one(net_source::from_net(net));
        EXPECT_EQ(r.status, pipeline_status::ok) << net.name() << ": " << r.diagnosis;
        EXPECT_GT(r.cycles, 0u);
        EXPECT_GT(r.tasks, 0u);
        EXPECT_GT(r.code_bytes, 0u);
        EXPECT_EQ(r.code.size(), r.code_bytes);
        EXPECT_TRUE(r.consistent);
    }
}

TEST(synthesis_pipeline, parse_and_file_failures_stay_isolated)
{
    const std::string dir = ::testing::TempDir() + "fcqss_pipeline_batch";
    std::filesystem::create_directories(dir);
    const std::string good = dir + "/good.pn";
    pnio::save_net(nets::figure_3a(), good);
    const std::string bad = dir + "/bad.pn";
    {
        std::FILE* f = std::fopen(bad.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("net broken { places { p } }", f); // missing ';'
        std::fclose(f);
    }

    const synthesis_pipeline pipe;
    const batch_report report =
        pipe.run_files({good, bad, dir + "/missing.pn"});
    ASSERT_EQ(report.results.size(), 3u);
    EXPECT_EQ(report.results[0].status, pipeline_status::ok);
    EXPECT_EQ(report.results[1].status, pipeline_status::parse_failed);
    // Batch diagnostics name the offending file.
    EXPECT_NE(report.results[1].diagnosis.find("bad.pn"), std::string::npos);
    EXPECT_EQ(report.results[2].status, pipeline_status::load_failed);
    EXPECT_EQ(report.count(pipeline_status::ok), 1u);

    std::filesystem::remove_all(dir);
}

TEST(synthesis_pipeline, text_sources_and_options)
{
    const net_source bad_model = net_source::from_text(
        "dup", "net dup { places { p; p; } }");
    pipeline_options options;
    options.generate_code = false;
    const synthesis_pipeline pipe(options);
    EXPECT_EQ(pipe.run_one(bad_model).status, pipeline_status::invalid_model);

    const pipeline_result r = pipe.run_one(net_source::from_net(nets::figure_4()));
    EXPECT_EQ(r.status, pipeline_status::ok);
    EXPECT_EQ(r.code_bytes, 0u); // codegen disabled
}

TEST(synthesis_pipeline, copied_sources_share_their_text)
{
    const net_source source =
        net_source::from_text("fig3a", pnio::write_net(nets::figure_3a()));
    const std::vector<net_source> copies(3, source);
    for (const net_source& copy : copies) {
        EXPECT_EQ(copy.text.get(), source.text.get());
    }

    pipeline_options options;
    options.jobs = 3;
    options.keep_code = true;
    const batch_report report = synthesis_pipeline(options).run(copies);
    ASSERT_EQ(report.results.size(), 3u);
    for (const pipeline_result& r : report.results) {
        EXPECT_EQ(r.status, pipeline_status::ok) << r.diagnosis;
        EXPECT_EQ(r.name, "fig3a");
        EXPECT_EQ(r.cycles, report.results[0].cycles);
        EXPECT_EQ(r.tasks, report.results[0].tasks);
        EXPECT_EQ(r.code, report.results[0].code);
    }
    EXPECT_FALSE(report.results[0].code.empty());
}

} // namespace
} // namespace fcqss::pipeline
