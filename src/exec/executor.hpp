// fcqss — exec/executor.hpp
// The one thread pool: a fixed set of std::jthread workers pulling closures
// from a bounded job_queue.  It serves batch synthesis, the parallel
// state-space engine and the resident synthesis service through two entry
// points:
//
//   for_each_index  runs fn(i) for every index in [0, count) and waits for
//                   all of them.  Pushes block while the queue is full.  An
//                   exception that escapes fn is captured and rethrown to
//                   the caller after the batch drains.
//
//   try_submit      enqueues one closure without blocking and fails fast
//                   when the queue is full or closed: the service turns
//                   that failure into an "overloaded" reply.
//
// close() stops intake, runs every queued job and joins the workers.  Jobs
// are expected to handle their own failures; an exception that escapes a
// submitted job anyway is swallowed and counted
// (exec.pool.escaped_exceptions), so worker threads never terminate the
// process.
#ifndef FCQSS_EXEC_EXECUTOR_HPP
#define FCQSS_EXEC_EXECUTOR_HPP

#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/job_queue.hpp"

namespace fcqss::exec {

/// Resolves a user-facing thread-count option: 0 picks the hardware
/// concurrency (at least 1), anything else is taken as given.
[[nodiscard]] std::size_t resolve_thread_count(std::size_t threads) noexcept;

class executor {
public:
    /// Spawns `jobs` workers (0 picks std::thread::hardware_concurrency)
    /// over a queue of 2 × workers.
    explicit executor(std::size_t jobs);

    /// Spawns `jobs` workers over a queue bounded at `queue_capacity`
    /// pending jobs (0 is taken as 1).
    executor(std::size_t jobs, std::size_t queue_capacity);

    /// Closes (see close()).
    ~executor();

    executor(const executor&) = delete;
    executor& operator=(const executor&) = delete;

    [[nodiscard]] std::size_t jobs() const noexcept { return job_count_; }

    /// Runs fn(0) .. fn(count - 1) on the pool and blocks until every call
    /// has finished.  Rethrows the first escaped job exception, if any.
    /// Must not be called from one of this pool's own jobs.
    void for_each_index(std::size_t count, const std::function<void(std::size_t)>& fn);

    /// Enqueues without blocking; false when the queue is full or closed.
    [[nodiscard]] bool try_submit(std::function<void()> job);

    /// Stops intake, runs every queued job, joins the workers.  Safe to
    /// call more than once and from concurrent threads.
    void close();

    /// Jobs currently queued (not yet picked up by a worker).
    [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

private:
    void worker_loop(std::size_t index);

    job_queue<std::function<void()>> queue_;
    std::size_t job_count_ = 0; // fixed at construction
    std::mutex close_mutex_;
    std::vector<std::jthread> workers_;
};

} // namespace fcqss::exec

#endif // FCQSS_EXEC_EXECUTOR_HPP
