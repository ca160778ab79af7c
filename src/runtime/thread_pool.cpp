#include "runtime/thread_pool.hpp"

#include <algorithm>

namespace bdsmaj::runtime {

ThreadPool::ThreadPool(int threads) {
    const int n = std::max(threads, 1);
    threads_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    work_cv_.notify_one();
}

void ThreadPool::worker_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        // Shutdown drains: a worker exits only once the queue is empty.
        work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        task();
        task = nullptr;  // destroy captures outside the lock
        lock.lock();
    }
}

}  // namespace bdsmaj::runtime
