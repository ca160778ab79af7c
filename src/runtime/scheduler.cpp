#include "runtime/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <string_view>

namespace bdsmaj::runtime {

namespace {

std::mutex g_pool_mutex;
ThreadPool* g_pool = nullptr;  // created once, intentionally never deleted
int g_pool_request = 0;        // configure_global_pool ask; 0 = default

}  // namespace

int default_global_pool_threads() noexcept {
    if (const char* env = std::getenv("BDSMAJ_JOBS")) {
        // The whole string must be a positive integer: "3x" is as invalid
        // as "garbage", not a request for 3 threads.
        const std::string_view text(env);
        int v = 0;
        const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
        if (ec == std::errc{} && end == text.data() + text.size() && v > 0) return v;
    }
    return effective_jobs(0);
}

ThreadPool& global_pool() {
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (g_pool == nullptr) {
        const int threads =
            g_pool_request > 0 ? g_pool_request : default_global_pool_threads();
        // Never destroyed: the workers live for the process, which removes
        // every static-destruction-order question for late submitters. The
        // pointer stays reachable, so leak checkers are quiet.
        g_pool = new ThreadPool(threads);
    }
    return *g_pool;
}

bool configure_global_pool(int threads) {
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (g_pool != nullptr) return false;
    g_pool_request = std::max(threads, 0);
    return true;
}

int global_pool_threads() { return global_pool().size(); }

void parallel_for(std::size_t n, int jobs, const std::function<void(std::size_t)>& body) {
    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i) body(i);
        return;
    }
    ThreadPool& pool = global_pool();
    // More runners than pool threads + the caller can never execute
    // concurrently, so they are not submitted at all.
    const std::size_t runners = std::min({static_cast<std::size_t>(jobs), n,
                                          static_cast<std::size_t>(pool.size()) + 1});
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    // A body exception must not unwind through a pool thread (that would
    // std::terminate); capture the first one and rethrow to the caller
    // after the loop completes.
    const std::function<void()> runner = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) break;
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error) first_error = std::current_exception();
            }
        }
    };

    // Helper bookkeeping outlives this call via shared_ptr: a helper the
    // pool starts after the loop closed still locks the mutex, sees
    // `closed` and returns without touching anything on this stack.
    struct Helpers {
        std::mutex mutex;
        std::condition_variable done_cv;
        int running = 0;      // helpers inside runner()
        bool closed = false;  // set once the loop is over: no helper may start
    };
    // Closes the set on every exit, a throwing submit() included: revokes
    // the helpers that have not started and waits for the running ones.
    struct Closer {
        std::shared_ptr<Helpers> helpers = std::make_shared<Helpers>();
        Closer() = default;
        Closer(const Closer&) = delete;
        Closer& operator=(const Closer&) = delete;
        ~Closer() {
            std::unique_lock<std::mutex> lock(helpers->mutex);
            helpers->closed = true;
            helpers->done_cv.wait(lock, [this] { return helpers->running == 0; });
        }
    };
    {
        const Closer closer;
        for (std::size_t h = 1; h < runners; ++h) {
            pool.submit([helpers = closer.helpers, &runner] {
                {
                    std::lock_guard<std::mutex> lock(helpers->mutex);
                    if (helpers->closed) return;
                    ++helpers->running;
                }
                runner();
                std::lock_guard<std::mutex> lock(helpers->mutex);
                --helpers->running;
                helpers->done_cv.notify_all();
            });
        }
        runner();
    }
    if (first_error) std::rethrow_exception(first_error);
}

}  // namespace bdsmaj::runtime
