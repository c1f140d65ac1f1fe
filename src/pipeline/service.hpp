// fcqss — pipeline/service.hpp
// The resident synthesis service: the submit()/callback redesign of the
// batch pipeline's public API.  Where synthesis_pipeline::run() takes one
// closed vector of sources and blocks until the whole batch is done, a
// service stays up, accepts work one request at a time from any thread,
// and replies through callbacks — the shape a long-lived daemon (pn_tool
// serve), an embedding application, or a benchmark driving an open-loop
// request trace all need.
//
// Semantics:
//
//   submission    submit() hands one net_source plus a reply callback to
//                 the service's exec::executor, the same pool type batch
//                 synthesis and the parallel engine use.  Admission is
//                 bounded: when the pool's queue is full, try_submit fails
//                 and the submission is rejected immediately with
//                 submit_status::overloaded (explicit backpressure — the
//                 caller retries or sheds load; nothing blocks).
//
//   dedupe        Work is deduplicated by a content hash of the *parsed*
//                 net (its canonical `.pn` serialization), not of the
//                 submitted bytes: a thousand clients submitting the same
//                 net — even formatted or commented differently — cost one
//                 synthesis and a thousand replies.  Requests that arrive
//                 while the synthesis is in flight attach to it; requests
//                 that arrive after it completed are served from a bounded
//                 FIFO result cache.  Replies carry `deduplicated` /
//                 `cached` so clients and benches can observe the hit
//                 class.
//
//   streaming     An optional stage callback streams per-stage progress of
//                 the actual synthesis (parse early, the classify/
//                 structural verdicts next, C code last).  Only the
//                 request that runs the synthesis streams; attached
//                 duplicates receive the final reply only.
//
//   drain         drain() stops intake (subsequent submissions return
//                 submit_status::draining), waits until every accepted
//                 request has replied, and joins the workers.  The
//                 destructor drains implicitly.
//
// Every callback runs on a worker thread; callbacks must be thread-safe
// against each other and must not call back into submit()/drain().
// Results are bit-identical to the one-shot synthesis_pipeline::run()
// path for the same nets (differentially tested) — the service only
// re-schedules the same staged flow.
#ifndef FCQSS_PIPELINE_SERVICE_HPP
#define FCQSS_PIPELINE_SERVICE_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "exec/executor.hpp"
#include "pipeline/synthesis_pipeline.hpp"

namespace fcqss::pipeline {

struct service_options {
    /// Worker threads; 0 picks std::thread::hardware_concurrency().
    std::size_t jobs = 0;
    /// Bound on queued-but-unstarted requests (0 is taken as 1); admission
    /// past it is rejected with submit_status::overloaded.
    std::size_t max_queue = 256;
    /// Completed syntheses kept for dedupe (FIFO eviction); 0 disables the
    /// cache (in-flight dedupe still applies).
    std::size_t result_cache = 1024;
    /// The staged flow's configuration (scheduler caps, parse limits, ...).
    /// keep_code is forced on: a service reply without the code is useless.
    pipeline_options pipeline{};
};

/// Outcome of a submit() call (not of the synthesis — that arrives in the
/// reply callback).
enum class submit_status {
    accepted,   ///< queued; exactly one reply will follow
    overloaded, ///< queue full — backpressure, retry later
    draining,   ///< drain() started; no new work accepted
};

[[nodiscard]] const char* to_string(submit_status status);

/// Identifies one accepted submission in replies and stage events.
using request_id = std::uint64_t;

/// Terminal answer for one accepted submission.
struct synthesis_reply {
    request_id request = 0;
    /// The full pipeline result (status, diagnosis, timings, code when
    /// keep_code).  Shared: deduplicated requests alias one result.
    std::shared_ptr<const pipeline_result> result;
    bool deduplicated = false; ///< another request's synthesis produced this
    bool cached = false;       ///< served from the completed-result cache
};

using reply_callback = std::function<void(const synthesis_reply&)>;

/// Per-stage progress of the request actually running the synthesis.
/// `partial` is valid only for the duration of the call.
using service_stage_callback = std::function<void(
    request_id request, pipeline_stage stage, const pipeline_result& partial)>;

class service {
public:
    explicit service(service_options options = {});

    /// Drains (blocking) if drain() has not run yet.
    ~service();

    service(const service&) = delete;
    service& operator=(const service&) = delete;

    struct submit_result {
        submit_status status = submit_status::overloaded;
        request_id id = 0; ///< valid only when status == accepted
    };

    /// Thread-safe.  When accepted, `on_reply` is invoked exactly once, on
    /// a worker thread; `on_stage` streams stage progress if the request
    /// runs the synthesis itself (dedupe leaders only).
    submit_result submit(net_source source, reply_callback on_reply,
                         service_stage_callback on_stage = {});

    /// Stops intake, waits for every accepted request to reply, joins the
    /// workers.  Idempotent and safe to call from concurrent threads.
    void drain();

    /// Monotonic totals since construction (exact, independent of obs
    /// toggles).  The obs counters svc.* mirror these when stats are on.
    struct stats_snapshot {
        std::uint64_t submitted = 0;      ///< accepted submissions
        std::uint64_t replied = 0;        ///< replies delivered
        std::uint64_t syntheses = 0;      ///< pipelines actually run
        std::uint64_t inflight_hits = 0;  ///< dedupe: attached to running work
        std::uint64_t cache_hits = 0;     ///< dedupe: served from the cache
        std::uint64_t overloaded = 0;     ///< rejections for queue depth
        std::uint64_t parse_failures = 0; ///< inputs that never produced a net
    };

    [[nodiscard]] stats_snapshot stats() const;

    [[nodiscard]] const service_options& options() const noexcept { return options_; }
    [[nodiscard]] std::size_t jobs() const noexcept { return pool_.jobs(); }
    /// Requests admitted but not yet picked up by a worker.
    [[nodiscard]] std::size_t queue_depth() const { return pool_.queue_depth(); }

private:
    struct waiter {
        request_id id = 0;
        reply_callback on_reply;
        std::uint64_t submit_ns = 0;
    };

    /// One running synthesis other requests can attach to.
    struct inflight {
        std::vector<waiter> waiters;
    };

    void run_request(request_id id, net_source source, reply_callback on_reply,
                     service_stage_callback on_stage, std::uint64_t submit_ns);
    void deliver(const waiter& to, std::shared_ptr<const pipeline_result> result,
                 bool deduplicated, bool cached);
    void finish_one();

    service_options options_;
    synthesis_pipeline pipe_;
    exec::executor pool_;

    std::mutex dedupe_mutex_;
    std::unordered_map<std::uint64_t, inflight> inflight_;
    std::unordered_map<std::uint64_t, std::shared_ptr<const pipeline_result>> cache_;
    std::deque<std::uint64_t> cache_order_; // FIFO eviction

    std::mutex done_mutex_;
    std::condition_variable all_done_;
    /// Accepted, not yet replied.  The pool cannot count this: an attached
    /// duplicate is answered by its leader's job and holds no job itself.
    std::size_t outstanding_ = 0;
    /// Guarded by done_mutex_: admission (submit) and shutdown (drain)
    /// decide against one consistent {draining_, outstanding_} state, so a
    /// submit racing drain is either rejected as draining with no side
    /// effects or fully admitted before the quiescence wait can pass.
    bool draining_ = false;
    std::atomic<request_id> next_id_{1};

    // stats() totals; relaxed atomics, exact under snapshot.
    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> replied_{0};
    std::atomic<std::uint64_t> syntheses_{0};
    std::atomic<std::uint64_t> inflight_hits_{0};
    std::atomic<std::uint64_t> cache_hits_{0};
    std::atomic<std::uint64_t> overloaded_{0};
    std::atomic<std::uint64_t> parse_failures_{0};
};

/// The dedupe key: a 64-bit FNV-1a hash of the net's canonical `.pn`
/// serialization (pnio::write_net).  Exposed for tests and tooling that
/// want to predict dedupe behaviour.
[[nodiscard]] std::uint64_t content_hash(const pn::petri_net& net);

} // namespace fcqss::pipeline

#endif // FCQSS_PIPELINE_SERVICE_HPP
