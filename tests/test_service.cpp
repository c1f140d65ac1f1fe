// Tests for the resident synthesis service (pipeline::service): wire-code
// stability, differential equivalence with the one-shot pipeline, dedupe
// semantics (cache and in-flight attachment, observed through both
// stats() and the obs counters), explicit backpressure, stage streaming,
// and drain.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "nets/paper_nets.hpp"
#include "obs/obs.hpp"
#include "pipeline/net_generator.hpp"
#include "pipeline/service.hpp"
#include "pipeline/synthesis_pipeline.hpp"
#include "pnio/parser.hpp"
#include "pnio/writer.hpp"
#include "qss/schedulability.hpp"

namespace fcqss::pipeline {
namespace {

// ---------------------------------------------------------- wire codes --

constexpr pipeline_status all_statuses[] = {
    pipeline_status::ok,           pipeline_status::load_failed,
    pipeline_status::parse_failed, pipeline_status::invalid_model,
    pipeline_status::not_free_choice, pipeline_status::not_schedulable,
    pipeline_status::resource_limit,  pipeline_status::failed,
};

// The numeric mapping is a wire contract (CLI exit codes and the service
// protocol's "code" field); it is pinned value by value so a renumbering
// cannot slip through as a "refactor".
TEST(wire_codes, pipeline_status_codes_are_pinned)
{
    EXPECT_EQ(wire_code(pipeline_status::ok), 0);
    EXPECT_EQ(wire_code(pipeline_status::load_failed), 3);
    EXPECT_EQ(wire_code(pipeline_status::parse_failed), 4);
    EXPECT_EQ(wire_code(pipeline_status::invalid_model), 5);
    EXPECT_EQ(wire_code(pipeline_status::not_free_choice), 6);
    EXPECT_EQ(wire_code(pipeline_status::not_schedulable), 7);
    EXPECT_EQ(wire_code(pipeline_status::resource_limit), 8);
    EXPECT_EQ(wire_code(pipeline_status::failed), 9);
}

TEST(wire_codes, pipeline_status_round_trips)
{
    for (const pipeline_status status : all_statuses) {
        const auto back = status_from_wire(wire_code(status));
        ASSERT_TRUE(back.has_value()) << to_string(status);
        EXPECT_EQ(*back, status);

        const auto spelled = parse_pipeline_status(to_string(status));
        ASSERT_TRUE(spelled.has_value()) << to_string(status);
        EXPECT_EQ(*spelled, status);
    }
    // 1 and 2 stay reserved for generic/usage CLI failures.
    EXPECT_FALSE(status_from_wire(1).has_value());
    EXPECT_FALSE(status_from_wire(2).has_value());
    EXPECT_FALSE(status_from_wire(10).has_value());
    EXPECT_FALSE(status_from_wire(-1).has_value());
    EXPECT_FALSE(parse_pipeline_status("no_such_status").has_value());
}

TEST(wire_codes, reduction_failure_codes_are_pinned)
{
    using qss::reduction_failure;
    EXPECT_EQ(qss::wire_code(reduction_failure::none), 0);
    EXPECT_EQ(qss::wire_code(reduction_failure::inconsistent), 1);
    EXPECT_EQ(qss::wire_code(reduction_failure::source_uncovered), 2);
    EXPECT_EQ(qss::wire_code(reduction_failure::deadlock), 3);
    for (const reduction_failure failure :
         {reduction_failure::none, reduction_failure::inconsistent,
          reduction_failure::source_uncovered, reduction_failure::deadlock}) {
        const auto back = qss::reduction_failure_from_wire(qss::wire_code(failure));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, failure);
    }
    EXPECT_FALSE(qss::reduction_failure_from_wire(4).has_value());
    EXPECT_FALSE(qss::reduction_failure_from_wire(-1).has_value());
}

// ------------------------------------------------------------- fixtures --

/// Collects replies keyed by request id; wait() blocks until `expected`
/// replies arrived (all tests bound their waits via drain()).
struct reply_collector {
    std::mutex mutex;
    std::map<request_id, synthesis_reply> replies;

    reply_callback callback()
    {
        return [this](const synthesis_reply& reply) {
            std::lock_guard lock(mutex);
            replies.emplace(reply.request, reply);
        };
    }

    synthesis_reply at(request_id id)
    {
        std::lock_guard lock(mutex);
        return replies.at(id);
    }

    std::size_t size()
    {
        std::lock_guard lock(mutex);
        return replies.size();
    }
};

std::vector<net_source> mixed_sources()
{
    std::vector<net_source> sources;
    // The paper nets: schedulable, unschedulable, and inconsistent ones.
    sources.push_back(net_source::from_text("fig3a", pnio::write_net(nets::figure_3a())));
    sources.push_back(net_source::from_text("fig3b", pnio::write_net(nets::figure_3b())));
    sources.push_back(net_source::from_text("fig7", pnio::write_net(nets::figure_7())));
    // Generated spread, including defective (non-free-choice) nets.
    generator_options options;
    options.defect_percent = 30;
    options.token_load = 1;
    net_generator generator(42, options);
    for (int i = 0; i < 6; ++i) {
        const pn::petri_net net = generator.next();
        sources.push_back(net_source::from_text(net.name(), pnio::write_net(net)));
    }
    // One parse failure and one model failure.
    sources.push_back(net_source::from_text("garbage", "net { { {"));
    sources.push_back(
        net_source::from_text("dangling", "net d { arcs { a -> b; } }"));
    return sources;
}

// --------------------------------------------------------- differential --

// Acceptance: for identical inputs the service replies with results
// bit-identical to the one-shot synthesis_pipeline::run_one path — same
// status, diagnosis, size metrics, and generated C text.
TEST(service, results_match_one_shot_pipeline_bit_for_bit)
{
    pipeline_options reference_options;
    reference_options.keep_code = true;
    const synthesis_pipeline reference(reference_options);

    service_options options;
    options.jobs = 3;
    const std::vector<net_source> sources = mixed_sources();

    service svc(options);
    reply_collector collector;
    std::vector<request_id> ids;
    for (const net_source& source : sources) {
        const auto submitted = svc.submit(source, collector.callback());
        ASSERT_EQ(submitted.status, submit_status::accepted);
        ids.push_back(submitted.id);
    }
    svc.drain();
    ASSERT_EQ(collector.size(), sources.size());

    for (std::size_t i = 0; i < sources.size(); ++i) {
        const pipeline_result expected = reference.run_one(sources[i]);
        const synthesis_reply reply = collector.at(ids[i]);
        const pipeline_result& got = *reply.result;
        SCOPED_TRACE(sources[i].name);
        EXPECT_EQ(got.status, expected.status);
        EXPECT_EQ(got.diagnosis, expected.diagnosis);
        EXPECT_EQ(got.name, expected.name);
        EXPECT_EQ(got.klass, expected.klass);
        EXPECT_EQ(got.places, expected.places);
        EXPECT_EQ(got.transitions, expected.transitions);
        EXPECT_EQ(got.arcs, expected.arcs);
        EXPECT_EQ(got.allocations, expected.allocations);
        EXPECT_EQ(got.cycles, expected.cycles);
        EXPECT_EQ(got.tasks, expected.tasks);
        EXPECT_EQ(got.qss_failure, expected.qss_failure);
        EXPECT_EQ(got.code_bytes, expected.code_bytes);
        EXPECT_EQ(got.code_lines, expected.code_lines);
        EXPECT_EQ(got.code, expected.code); // bit-identical C
    }
}

// ---------------------------------------------------------------- dedupe --

TEST(service, content_hash_ignores_formatting)
{
    const pn::petri_net net = nets::figure_3a();
    const std::string canonical = pnio::write_net(net);
    std::string commented = "# a comment\n" + canonical + "\n   \n";
    const pn::petri_net reparsed = pnio::parse_net(commented);
    EXPECT_EQ(content_hash(net), content_hash(reparsed));
    EXPECT_NE(content_hash(net), content_hash(nets::figure_3b()));
}

// Acceptance: duplicate submissions trigger exactly one synthesis,
// asserted through the obs dedupe counters as well as stats().
TEST(service, duplicates_cost_one_synthesis)
{
    obs::reset();
    obs::set_stats_enabled(true);
    const std::uint64_t runs_before = obs::get_counter("svc.synth.runs").value();
    const std::uint64_t hits_before =
        obs::get_counter("svc.dedupe.cache_hits").value() +
        obs::get_counter("svc.dedupe.inflight_hits").value();

    const std::string canonical = pnio::write_net(nets::figure_3a());
    const std::string variant = "# same net, different bytes\n" + canonical;

    service_options options;
    options.jobs = 1; // serialize: the leader completes before duplicates run
    service svc(options);
    reply_collector collector;
    std::vector<request_id> ids;
    constexpr std::size_t copies = 6;
    for (std::size_t i = 0; i < copies; ++i) {
        const auto submitted = svc.submit(
            net_source::from_text("copy" + std::to_string(i),
                                  i % 2 == 0 ? canonical : variant),
            collector.callback());
        ASSERT_EQ(submitted.status, submit_status::accepted);
        ids.push_back(submitted.id);
    }
    svc.drain();

    const service::stats_snapshot stats = svc.stats();
    EXPECT_EQ(stats.submitted, copies);
    EXPECT_EQ(stats.replied, copies);
    EXPECT_EQ(stats.syntheses, 1u);
    EXPECT_EQ(stats.cache_hits + stats.inflight_hits, copies - 1);

    // The obs mirror agrees: one run, copies-1 dedupe hits.
    EXPECT_EQ(obs::get_counter("svc.synth.runs").value() - runs_before, 1u);
    EXPECT_EQ(obs::get_counter("svc.dedupe.cache_hits").value() +
                  obs::get_counter("svc.dedupe.inflight_hits").value() -
                  hits_before,
              copies - 1);
    obs::set_stats_enabled(false);

    // Every duplicate aliases the leader's result object.
    const synthesis_reply leader = collector.at(ids[0]);
    EXPECT_FALSE(leader.deduplicated);
    for (std::size_t i = 1; i < copies; ++i) {
        const synthesis_reply dup = collector.at(ids[i]);
        EXPECT_TRUE(dup.deduplicated);
        EXPECT_EQ(dup.result.get(), leader.result.get());
    }
}

TEST(service, inflight_duplicates_attach_to_the_running_synthesis)
{
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    bool running = false;
    bool release = false;

    service_options options;
    options.jobs = 2;
    service svc(options);
    reply_collector collector;

    const std::string text = pnio::write_net(nets::figure_3a());
    // The leader blocks in its first stage callback until released, so the
    // duplicate demonstrably arrives while the synthesis is in flight.  Only
    // the request that registered the content hash streams stages, so the
    // callback firing also proves the leader owns the hash.
    const auto leader = svc.submit(
        net_source::from_text("leader", text), collector.callback(),
        [&](request_id, pipeline_stage stage, const pipeline_result&) {
            if (stage == pipeline_stage::parse) {
                std::unique_lock lock(gate_mutex);
                running = true;
                gate_cv.notify_all();
                gate_cv.wait(lock, [&] { return release; });
            }
        });
    ASSERT_EQ(leader.status, submit_status::accepted);

    // Submit the duplicate only once the leader is running: with two
    // workers, a duplicate submitted earlier could parse first and lead.
    {
        std::unique_lock lock(gate_mutex);
        EXPECT_TRUE(gate_cv.wait_for(lock, std::chrono::seconds(30), [&] { return running; }));
    }
    const auto duplicate =
        svc.submit(net_source::from_text("dup", text), collector.callback());
    ASSERT_EQ(duplicate.status, submit_status::accepted);

    // Wait (bounded) until the duplicate has attached to the leader.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (svc.stats().inflight_hits == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(svc.stats().inflight_hits, 1u);

    {
        std::lock_guard lock(gate_mutex);
        release = true;
    }
    gate_cv.notify_all();
    svc.drain();

    EXPECT_EQ(svc.stats().syntheses, 1u);
    EXPECT_TRUE(collector.at(duplicate.id).deduplicated);
    EXPECT_FALSE(collector.at(duplicate.id).cached); // attached, not cached
    EXPECT_EQ(collector.at(duplicate.id).result.get(),
              collector.at(leader.id).result.get());
}

TEST(service, result_cache_can_be_disabled)
{
    service_options options;
    options.jobs = 1;
    options.result_cache = 0;
    service svc(options);
    reply_collector collector;
    const std::string text = pnio::write_net(nets::figure_3a());
    const auto first = svc.submit(net_source::from_text("a", text),
                                  collector.callback());
    const auto second = svc.submit(net_source::from_text("b", text),
                                   collector.callback());
    ASSERT_EQ(first.status, submit_status::accepted);
    ASSERT_EQ(second.status, submit_status::accepted);
    svc.drain();
    // Without a cache both may synthesize (jobs=1 means sequential, so the
    // second cannot attach in flight either).
    EXPECT_EQ(svc.stats().cache_hits, 0u);
    EXPECT_EQ(svc.stats().syntheses, 2u);
}

// ----------------------------------------------------------- backpressure --

TEST(service, overload_is_an_explicit_reply_not_a_block)
{
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    bool release = false;

    service_options options;
    options.jobs = 1;
    options.max_queue = 1;
    service svc(options);
    reply_collector collector;

    // Distinct nets, so dedupe cannot absorb the flood.
    generator_options gen_options;
    net_generator generator(7, gen_options);
    const auto source = [&](const char* name) {
        return net_source::from_text(name, pnio::write_net(generator.next()));
    };

    const auto running = svc.submit(
        source("running"), collector.callback(),
        [&](request_id, pipeline_stage stage, const pipeline_result&) {
            if (stage == pipeline_stage::parse) {
                std::unique_lock lock(gate_mutex);
                gate_cv.wait(lock, [&] { return release; });
            }
        });
    ASSERT_EQ(running.status, submit_status::accepted);

    // Wait until the worker actually picked the first job up, so the queue
    // slot below is truly the only one left.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (svc.queue_depth() != 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(svc.queue_depth(), 0u);

    const auto queued = svc.submit(source("queued"), collector.callback());
    ASSERT_EQ(queued.status, submit_status::accepted);

    const auto rejected = svc.submit(source("rejected"), collector.callback());
    EXPECT_EQ(rejected.status, submit_status::overloaded);
    EXPECT_EQ(rejected.id, 0u);

    {
        std::lock_guard lock(gate_mutex);
        release = true;
    }
    gate_cv.notify_all();
    svc.drain();

    EXPECT_EQ(svc.stats().overloaded, 1u);
    EXPECT_EQ(svc.stats().submitted, 2u);
    EXPECT_EQ(collector.size(), 2u); // the rejected request never replies
}

// Admission and drain decide against one consistent state: once drain() has
// published its intent, every rejection reports draining — never overloaded,
// even when the queue also happens to be full — and overloaded_ stays
// untouched.  The pre-fix code read draining_ twice around try_submit, so a
// submit racing drain could land in the overloaded branch with the wrong
// reason (and a submit in the first-read window could slip past drain's
// quiescence wait entirely).
TEST(service, rejections_during_drain_are_draining_not_overloaded)
{
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    bool release = false;

    service_options options;
    options.jobs = 1;
    options.max_queue = 1;
    service svc(options);
    reply_collector collector;

    generator_options gen_options;
    net_generator generator(7, gen_options);
    const auto source = [&](const char* name) {
        return net_source::from_text(name, pnio::write_net(generator.next()));
    };

    const auto running = svc.submit(
        source("running"), collector.callback(),
        [&](request_id, pipeline_stage stage, const pipeline_result&) {
            if (stage == pipeline_stage::parse) {
                std::unique_lock lock(gate_mutex);
                gate_cv.wait(lock, [&] { return release; });
            }
        });
    ASSERT_EQ(running.status, submit_status::accepted);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (svc.queue_depth() != 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(svc.queue_depth(), 0u);
    const auto queued = svc.submit(source("queued"), collector.callback());
    ASSERT_EQ(queued.status, submit_status::accepted);

    std::thread drainer([&] { svc.drain(); });
    // Probe until drain() has published its intent: the worker is stalled
    // and the queue full, so probes report overloaded right up to the
    // moment draining_ is set, then draining.
    for (;;) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        const auto probe = svc.submit(source("probe"), collector.callback());
        if (probe.status == submit_status::draining) {
            break;
        }
        ASSERT_EQ(probe.status, submit_status::overloaded);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto overloaded_before = svc.stats().overloaded;
    const auto rejected = svc.submit(source("late"), collector.callback());
    EXPECT_EQ(rejected.status, submit_status::draining);
    EXPECT_EQ(svc.stats().overloaded, overloaded_before);

    {
        std::lock_guard lock(gate_mutex);
        release = true;
    }
    gate_cv.notify_all();
    drainer.join();
    // Both accepted requests replied before drain() returned; no probe did.
    EXPECT_EQ(collector.size(), 2u);
    EXPECT_EQ(svc.stats().replied, 2u);
}

// Hammer the same race from many submitters: every accepted request replies
// before drain() returns, nothing replies after, and once drain() has
// returned every further submit reports draining.
TEST(service, concurrent_submits_and_drain_settle_cleanly)
{
    service_options options;
    options.jobs = 2;
    options.max_queue = 4;
    service svc(options);
    reply_collector collector;

    const std::string text = pnio::write_net(nets::figure_3a());
    std::atomic<bool> start{false};
    std::atomic<bool> drain_returned{false};
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> overloaded_after_drain{0};
    std::vector<std::thread> submitters;
    submitters.reserve(4);
    for (int t = 0; t < 4; ++t) {
        submitters.emplace_back([&] {
            while (!start.load(std::memory_order_acquire)) {
                std::this_thread::yield();
            }
            for (;;) {
                // Snapshot before the call: a submit may legitimately start
                // ahead of drain() returning and classify as overloaded
                // while drain completes underneath it.  Only a submit that
                // *begins* after drain returned must report draining.
                const bool after_drain =
                    drain_returned.load(std::memory_order_acquire);
                const auto r = svc.submit(net_source::from_text("flood", text),
                                          collector.callback());
                if (r.status == submit_status::draining) {
                    return;
                }
                if (r.status == submit_status::accepted) {
                    accepted.fetch_add(1, std::memory_order_relaxed);
                } else if (after_drain) {
                    overloaded_after_drain.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    start.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    svc.drain();
    const std::size_t replies_at_drain = collector.size();
    drain_returned.store(true, std::memory_order_release);
    for (std::thread& th : submitters) {
        th.join();
    }

    EXPECT_EQ(overloaded_after_drain.load(), 0u);
    EXPECT_EQ(collector.size(), replies_at_drain); // nothing replies post-drain
    EXPECT_EQ(collector.size(), accepted.load());  // every accepted replied
    EXPECT_EQ(svc.stats().replied, accepted.load());
}

// -------------------------------------------------------------- streaming --

TEST(service, stages_stream_in_order_for_the_leader)
{
    service_options options;
    options.jobs = 1;
    service svc(options);
    reply_collector collector;

    std::mutex stages_mutex;
    std::vector<pipeline_stage> stages;
    const auto submitted = svc.submit(
        net_source::from_text("fig3a", pnio::write_net(nets::figure_3a())),
        collector.callback(),
        [&](request_id, pipeline_stage stage, const pipeline_result&) {
            std::lock_guard lock(stages_mutex);
            stages.push_back(stage);
        });
    ASSERT_EQ(submitted.status, submit_status::accepted);
    svc.drain();

    const std::vector<pipeline_stage> expected = {
        pipeline_stage::parse,     pipeline_stage::classify,
        pipeline_stage::structural, pipeline_stage::schedule,
        pipeline_stage::partition, pipeline_stage::codegen,
    };
    EXPECT_EQ(stages, expected);
    EXPECT_EQ(collector.at(submitted.id).result->status, pipeline_status::ok);
}

TEST(service, rejecting_stage_streams_its_verdict_early)
{
    service_options options;
    options.jobs = 1;
    service svc(options);
    reply_collector collector;

    // figure7 is consistent-free-choice but not schedulable: the schedule
    // stage carries the early verdict.
    std::mutex verdict_mutex;
    pipeline_status at_schedule = pipeline_status::ok;
    const auto submitted = svc.submit(
        net_source::from_text("fig7", pnio::write_net(nets::figure_7())),
        collector.callback(),
        [&](request_id, pipeline_stage stage, const pipeline_result& partial) {
            if (stage == pipeline_stage::schedule) {
                std::lock_guard lock(verdict_mutex);
                at_schedule = partial.status;
            }
        });
    ASSERT_EQ(submitted.status, submit_status::accepted);
    svc.drain();

    EXPECT_EQ(at_schedule, pipeline_status::not_schedulable);
    const synthesis_reply reply = collector.at(submitted.id);
    EXPECT_EQ(reply.result->status, pipeline_status::not_schedulable);
    EXPECT_NE(reply.result->qss_failure, qss::reduction_failure::none);
}

// --------------------------------------------------- failures and limits --

TEST(service, parse_failures_classify_like_the_batch_path)
{
    service_options options;
    options.jobs = 1;
    service svc(options);
    reply_collector collector;
    const auto submitted = svc.submit(
        net_source::from_text("garbage", "net { nonsense"), collector.callback());
    ASSERT_EQ(submitted.status, submit_status::accepted);
    svc.drain();
    EXPECT_EQ(collector.at(submitted.id).result->status,
              pipeline_status::parse_failed);
    EXPECT_FALSE(collector.at(submitted.id).result->diagnosis.empty());
    EXPECT_EQ(svc.stats().parse_failures, 1u);
    EXPECT_EQ(svc.stats().syntheses, 0u);
}

TEST(service, oversized_input_returns_resource_limit)
{
    service_options options;
    options.jobs = 1;
    options.pipeline.limits.max_input_bytes = 128;
    service svc(options);
    reply_collector collector;
    std::string big = pnio::write_net(nets::figure_3a());
    big.append(std::string(256, ' '));
    const auto submitted =
        svc.submit(net_source::from_text("big", big), collector.callback());
    ASSERT_EQ(submitted.status, submit_status::accepted);
    svc.drain();
    EXPECT_EQ(collector.at(submitted.id).result->status,
              pipeline_status::resource_limit);
}

// ------------------------------------------------------------------ drain --

TEST(service, drain_stops_intake_and_is_idempotent)
{
    service svc{service_options{}};
    reply_collector collector;
    svc.drain();
    svc.drain(); // idempotent
    const auto after = svc.submit(
        net_source::from_text("late", pnio::write_net(nets::figure_3a())),
        collector.callback());
    EXPECT_EQ(after.status, submit_status::draining);
    EXPECT_EQ(collector.size(), 0u);
}

TEST(service, destructor_drains_outstanding_work)
{
    reply_collector collector;
    std::size_t expected = 0;
    {
        service svc{service_options{}};
        const std::string text = pnio::write_net(nets::figure_3a());
        for (int i = 0; i < 4; ++i) {
            if (svc.submit(net_source::from_text("n" + std::to_string(i), text),
                           collector.callback())
                    .status == submit_status::accepted) {
                ++expected;
            }
        }
        // no drain: the destructor must wait for every reply
    }
    EXPECT_EQ(collector.size(), expected);
    EXPECT_EQ(expected, 4u);
}

} // namespace
} // namespace fcqss::pipeline
