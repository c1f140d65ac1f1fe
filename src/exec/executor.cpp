#include "exec/executor.hpp"

#include <condition_variable>
#include <exception>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace fcqss::exec {

std::size_t resolve_thread_count(std::size_t threads) noexcept
{
    if (threads != 0) {
        return threads;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

executor::executor(std::size_t jobs) : executor(jobs, 2 * resolve_thread_count(jobs))
{
}

executor::executor(std::size_t jobs, std::size_t queue_capacity)
    : queue_(queue_capacity), job_count_(resolve_thread_count(jobs))
{
    workers_.reserve(job_count_);
    for (std::size_t i = 0; i < job_count_; ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
    }
}

executor::~executor()
{
    close();
}

bool executor::try_submit(std::function<void()> job)
{
    return queue_.try_push(std::move(job));
}

void executor::close()
{
    std::lock_guard lock(close_mutex_);
    queue_.close();
    workers_.clear(); // jthread joins on destruction; pops drain the queue
}

void executor::worker_loop(std::size_t index)
{
    // Registered eagerly (cheap, dedup'd by name) so the add below is one
    // guarded relaxed fetch_add per job — jobs are coarse, not per-state.
    obs::counter& jobs_counter =
        obs::get_counter("exec.worker." + std::to_string(index) + ".jobs");
    while (auto job = queue_.pop()) {
        try {
            (*job)();
        } catch (...) {
            // Jobs own their failures; one that leaks must not kill the
            // process.  Count it so the stats surface shows it.
            if (obs::stats_enabled()) {
                static obs::counter& escaped =
                    obs::get_counter("exec.pool.escaped_exceptions");
                escaped.add(1);
            }
        }
        jobs_counter.add(1);
    }
}

void executor::for_each_index(std::size_t count,
                              const std::function<void(std::size_t)>& fn)
{
    if (count == 0) {
        return;
    }

    // This batch's completion state: it lives in this frame, so batches
    // from different callers never share it.
    std::mutex done_mutex;
    std::condition_variable done;
    std::size_t pending = count;
    std::exception_ptr first_failure;

    const auto finish_one = [&](std::exception_ptr failure) {
        std::lock_guard lock(done_mutex);
        if (failure && !first_failure) {
            first_failure = std::move(failure);
        }
        if (--pending == 0) {
            done.notify_all();
        }
    };

    for (std::size_t i = 0; i < count; ++i) {
        const bool queued = queue_.push([i, &fn, &finish_one] {
            std::exception_ptr failure;
            try {
                fn(i);
            } catch (...) {
                failure = std::current_exception();
            }
            finish_one(failure);
        });
        if (!queued) {
            // Queue closed under us: account for the jobs that will never
            // run so the wait below terminates.
            finish_one(nullptr);
        }
    }

    std::unique_lock lock(done_mutex);
    done.wait(lock, [&] { return pending == 0; });
    if (first_failure) {
        std::rethrow_exception(first_failure);
    }
}

} // namespace fcqss::exec
