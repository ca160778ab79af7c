#include "runtime/scheduler.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <mutex>
#include <string_view>
#include <thread>

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
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
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

}  // namespace bdsmaj::runtime
