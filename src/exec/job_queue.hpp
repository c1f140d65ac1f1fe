// fcqss — exec/job_queue.hpp
// Bounded multi-producer / multi-consumer job queue: the hand-off point
// between a work driver and executor worker threads.  Producers block while
// the queue is full (back-pressure keeps memory bounded on huge batches);
// consumers block while it is empty.  close() wakes everyone and drains:
// pops keep returning queued items until the queue is empty, then return
// nullopt.
#ifndef FCQSS_EXEC_JOB_QUEUE_HPP
#define FCQSS_EXEC_JOB_QUEUE_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "obs/obs.hpp"

namespace fcqss::exec {

template <typename T>
class job_queue {
public:
    explicit job_queue(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

    job_queue(const job_queue&) = delete;
    job_queue& operator=(const job_queue&) = delete;

    /// Blocks while the queue is full.  Returns false (dropping the value)
    /// when the queue has been closed.
    bool push(T value)
    {
        std::unique_lock lock(mutex_);
        if (obs::stats_enabled() && items_.size() >= capacity_ && !closed_) {
            // About to block on back-pressure.  Same-named counter across
            // every instantiation: get_counter dedups by name.
            static obs::counter& stalls = obs::get_counter("exec.queue.enqueue_stalls");
            stalls.add(1);
        }
        not_full_.wait(lock, [this] { return items_.size() < capacity_ || closed_; });
        if (closed_) {
            return false;
        }
        items_.push_back(std::move(value));
        if (obs::stats_enabled()) {
            static obs::gauge& depth_hwm = obs::get_gauge("exec.queue.depth_hwm", "jobs");
            depth_hwm.set_max(static_cast<double>(items_.size()));
        }
        lock.unlock();
        not_empty_.notify_one();
        return true;
    }

    /// Non-blocking push: returns false immediately (dropping the value)
    /// when the queue is full or closed, instead of waiting for room.  The
    /// explicit-backpressure primitive: a resident service turns a failed
    /// try_push into an "overloaded, retry later" reply rather than
    /// stalling the submitting client.
    bool try_push(T value)
    {
        {
            std::lock_guard lock(mutex_);
            if (closed_ || items_.size() >= capacity_) {
                return false;
            }
            items_.push_back(std::move(value));
            if (obs::stats_enabled()) {
                static obs::gauge& depth_hwm =
                    obs::get_gauge("exec.queue.depth_hwm", "jobs");
                depth_hwm.set_max(static_cast<double>(items_.size()));
            }
        }
        not_empty_.notify_one();
        return true;
    }

    /// Blocks while the queue is empty and open.  Returns nullopt once the
    /// queue is closed and fully drained.
    std::optional<T> pop()
    {
        std::unique_lock lock(mutex_);
        not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
        if (items_.empty()) {
            return std::nullopt;
        }
        T value = std::move(items_.front());
        items_.pop_front();
        lock.unlock();
        not_full_.notify_one();
        return value;
    }

    /// Marks the queue closed; pending items remain poppable.
    void close()
    {
        {
            std::lock_guard lock(mutex_);
            closed_ = true;
        }
        not_empty_.notify_all();
        not_full_.notify_all();
    }

    [[nodiscard]] std::size_t size() const
    {
        std::lock_guard lock(mutex_);
        return items_.size();
    }

private:
    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable not_empty_;
    std::condition_variable not_full_;
    std::deque<T> items_;
    bool closed_ = false;
};

} // namespace fcqss::exec

#endif // FCQSS_EXEC_JOB_QUEUE_HPP
