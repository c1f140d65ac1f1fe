#include "pipeline/service.hpp"

#include <array>
#include <chrono>
#include <optional>
#include <utility>

#include "obs/obs.hpp"
#include "pnio/parser.hpp"
#include "pnio/writer.hpp"

namespace fcqss::pipeline {

const char* to_string(submit_status status)
{
    switch (status) {
    case submit_status::accepted:
        return "accepted";
    case submit_status::overloaded:
        return "overloaded";
    case submit_status::draining:
        return "draining";
    }
    return "?";
}

std::uint64_t content_hash(const pn::petri_net& net)
{
    const std::string canonical = pnio::write_net(net);
    std::uint64_t hash = 14695981039346656037ULL; // FNV-1a 64
    for (const char c : canonical) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

namespace {

using clock = std::chrono::steady_clock;

double micros_since(clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(clock::now() - start).count();
}

/// Per-stage service latency histograms, resolved once (names must outlive
/// the process; get_histogram dedups by name).
obs::histogram& stage_histogram(pipeline_stage stage)
{
    static const std::array<obs::histogram*, stage_count> histograms = [] {
        std::array<obs::histogram*, stage_count> resolved{};
        for (std::size_t i = 0; i < stage_count; ++i) {
            resolved[i] = &obs::get_histogram(
                std::string("svc.stage.") + to_string(static_cast<pipeline_stage>(i)) +
                    ".micros",
                "us");
        }
        return resolved;
    }();
    return *histograms[static_cast<std::size_t>(stage)];
}

} // namespace

service::service(service_options options)
    : options_([&] {
          // A service reply without the code would force clients to re-run
          // codegen; retain it whenever codegen runs at all.
          options.pipeline.keep_code = options.pipeline.generate_code;
          return options;
      }()),
      pipe_(options_.pipeline), pool_(options_.jobs, options_.max_queue)
{
}

service::~service()
{
    drain();
}

service::submit_result service::submit(net_source source, reply_callback on_reply,
                                       service_stage_callback on_stage)
{
    // Admission and shutdown decide against one consistent state: under
    // done_mutex_, either drain() already set draining_ (reject here, no
    // side effects) or this request raises outstanding_ first — which
    // blocks drain()'s quiescence wait, and therefore pool_.close(), until
    // the request resolves.  Splitting this into two separate draining_
    // reads would let a submit race drain into counting the request as
    // overloaded_ and reporting the wrong rejection reason.
    {
        std::lock_guard lock(done_mutex_);
        if (draining_) {
            return {submit_status::draining, 0};
        }
        ++outstanding_;
    }
    const request_id id = next_id_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t submit_ns = obs::now_ns();
    const bool queued = pool_.try_submit(
        [this, id, source = std::move(source), on_reply = std::move(on_reply),
         on_stage = std::move(on_stage), submit_ns]() mutable {
            run_request(id, std::move(source), std::move(on_reply),
                        std::move(on_stage), submit_ns);
        });
    if (!queued) {
        finish_one();
        // We were admitted, so the pool cannot have been closed under us
        // (drain is still blocked on our outstanding_ count): a failed
        // try_submit always means the queue is full.
        overloaded_.fetch_add(1, std::memory_order_relaxed);
        if (obs::stats_enabled()) {
            static obs::counter& rejected =
                obs::get_counter("svc.rejected.overloaded");
            rejected.add(1);
        }
        return {submit_status::overloaded, 0};
    }
    submitted_.fetch_add(1, std::memory_order_relaxed);
    if (obs::stats_enabled()) {
        static obs::counter& accepted = obs::get_counter("svc.submitted");
        static obs::gauge& depth = obs::get_gauge("svc.queue.depth_hwm", "requests");
        accepted.add(1);
        depth.set_max(static_cast<double>(pool_.queue_depth()));
    }
    return {submit_status::accepted, id};
}

void service::run_request(request_id id, net_source source, reply_callback on_reply,
                          service_stage_callback on_stage, std::uint64_t submit_ns)
{
    // -- resolve the net (the service's own parse step: the dedupe key is a
    // content hash of the *parsed* net, so parsing precedes admission to
    // the dedupe table, and parse failures never dedupe) -------------------
    std::optional<pn::petri_net> parsed;
    double parse_micros = 0;
    if (!source.prebuilt) {
        const auto start = clock::now();
        try {
            parsed = source.parse(options_.pipeline.limits);
            parse_micros = micros_since(start);
        } catch (...) {
            auto failure = std::make_shared<pipeline_result>();
            failure->name = source.name;
            failure->status = status_of_current_exception(failure->diagnosis);
            failure->timings.micros[static_cast<std::size_t>(pipeline_stage::parse)] =
                micros_since(start);
            parse_failures_.fetch_add(1, std::memory_order_relaxed);
            deliver({id, std::move(on_reply), submit_ns}, std::move(failure), false,
                    false);
            return;
        }
    }
    const pn::petri_net& net = source.prebuilt ? *source.prebuilt : *parsed;
    const std::uint64_t hash = content_hash(net);

    // -- dedupe admission --------------------------------------------------
    {
        std::unique_lock lock(dedupe_mutex_);
        if (const auto hit = cache_.find(hash); hit != cache_.end()) {
            const std::shared_ptr<const pipeline_result> result = hit->second;
            lock.unlock();
            cache_hits_.fetch_add(1, std::memory_order_relaxed);
            if (obs::stats_enabled()) {
                static obs::counter& hits = obs::get_counter("svc.dedupe.cache_hits");
                hits.add(1);
            }
            deliver({id, std::move(on_reply), submit_ns}, result, true, true);
            return;
        }
        if (const auto running = inflight_.find(hash); running != inflight_.end()) {
            running->second.waiters.push_back({id, std::move(on_reply), submit_ns});
            inflight_hits_.fetch_add(1, std::memory_order_relaxed);
            if (obs::stats_enabled()) {
                static obs::counter& hits =
                    obs::get_counter("svc.dedupe.inflight_hits");
                hits.add(1);
            }
            return; // the leader replies for us
        }
        inflight_.emplace(hash, inflight{});
    }

    // -- leader: run the synthesis ----------------------------------------
    syntheses_.fetch_add(1, std::memory_order_relaxed);
    if (obs::stats_enabled()) {
        static obs::counter& runs = obs::get_counter("svc.synth.runs");
        runs.add(1);
    }
    const stage_observer bridge = [&](pipeline_stage stage,
                                      const pipeline_result& partial) {
        if (obs::stats_enabled()) {
            stage_histogram(stage).record(static_cast<std::uint64_t>(
                partial.timings[stage] > 0 ? partial.timings[stage] : 0));
        }
        if (on_stage) {
            on_stage(id, stage, partial);
        }
    };
    // run_one below receives a prebuilt net and so never observes the parse
    // stage itself — stream the service-side parse here, after the dedupe
    // registration, so followers can already attach while clients see the
    // full staged flow starting at parse.
    {
        pipeline_result partial;
        partial.name = source.name;
        partial.timings.micros[static_cast<std::size_t>(pipeline_stage::parse)] =
            parse_micros;
        bridge(pipeline_stage::parse, partial);
    }
    const net_source run_source =
        source.prebuilt ? std::move(source) : net_source::from_net(std::move(*parsed));
    pipeline_result result = pipe_.run_one(run_source, bridge);
    // The service parsed up front; charge that time to the parse stage so
    // timings stay comparable with the one-shot path.
    result.timings.micros[static_cast<std::size_t>(pipeline_stage::parse)] +=
        parse_micros;
    const auto shared = std::make_shared<const pipeline_result>(std::move(result));

    // -- complete: publish to the cache, collect attached waiters ----------
    std::vector<waiter> waiters;
    {
        std::lock_guard lock(dedupe_mutex_);
        const auto running = inflight_.find(hash);
        waiters = std::move(running->second.waiters);
        inflight_.erase(running);
        if (options_.result_cache > 0) {
            cache_.emplace(hash, shared);
            cache_order_.push_back(hash);
            while (cache_.size() > options_.result_cache) {
                cache_.erase(cache_order_.front());
                cache_order_.pop_front();
            }
        }
    }
    deliver({id, std::move(on_reply), submit_ns}, shared, false, false);
    for (waiter& attached : waiters) {
        deliver(attached, shared, true, false);
    }
}

void service::deliver(const waiter& to, std::shared_ptr<const pipeline_result> result,
                      bool deduplicated, bool cached)
{
    synthesis_reply reply;
    reply.request = to.id;
    reply.result = std::move(result);
    reply.deduplicated = deduplicated;
    reply.cached = cached;
    to.on_reply(reply);
    replied_.fetch_add(1, std::memory_order_relaxed);
    if (obs::stats_enabled()) {
        static obs::counter& replies = obs::get_counter("svc.replies");
        static obs::histogram& latency =
            obs::get_histogram("svc.request.micros", "us");
        replies.add(1);
        latency.record((obs::now_ns() - to.submit_ns) / 1000);
    }
    finish_one();
}

void service::finish_one()
{
    std::lock_guard lock(done_mutex_);
    if (--outstanding_ == 0) {
        all_done_.notify_all();
    }
}

void service::drain()
{
    {
        std::unique_lock lock(done_mutex_);
        draining_ = true;
        all_done_.wait(lock, [this] { return outstanding_ == 0; });
    }
    pool_.close();
}

service::stats_snapshot service::stats() const
{
    stats_snapshot snapshot;
    snapshot.submitted = submitted_.load(std::memory_order_relaxed);
    snapshot.replied = replied_.load(std::memory_order_relaxed);
    snapshot.syntheses = syntheses_.load(std::memory_order_relaxed);
    snapshot.inflight_hits = inflight_hits_.load(std::memory_order_relaxed);
    snapshot.cache_hits = cache_hits_.load(std::memory_order_relaxed);
    snapshot.overloaded = overloaded_.load(std::memory_order_relaxed);
    snapshot.parse_failures = parse_failures_.load(std::memory_order_relaxed);
    return snapshot;
}

} // namespace fcqss::pipeline
