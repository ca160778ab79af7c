#pragma once
// Thread pool behind SynthesisService jobs: one mutex-guarded FIFO queue
// shared by every worker. A service owns one unless it is handed a pool.
//
// The pool's traffic is coarse: one task per admitted service job, which
// runs the whole job on the worker that picks it up. A single queue in
// submission order is all that needs; skewed loads are absorbed because
// an idle worker takes the next queued task whoever submitted it.
//
// Determinism note: the pool schedules non-deterministically — callers
// that need reproducible output must make tasks independent (each service
// job synthesizes its circuits in input order on one thread). Nothing in
// this file depends on timing for correctness.

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bdsmaj::runtime {

class ThreadPool {
public:
    /// Spawns `threads` workers (clamped to at least 1).
    explicit ThreadPool(int threads);
    /// Runs every task still queued, then joins the workers. A task is
    /// never interrupted mid-execution.
    ~ThreadPool();
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] int size() const noexcept { return static_cast<int>(threads_.size()); }

    /// Enqueue a task. Safe from any thread, including pool workers.
    void submit(std::function<void()> task);

private:
    void worker_loop();

    std::vector<std::thread> threads_;
    std::mutex mutex_;
    std::condition_variable work_cv_;   // workers sleep here when the queue is empty
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
};

}  // namespace bdsmaj::runtime
