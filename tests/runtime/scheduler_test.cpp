// Process-wide scheduler: the shared global pool and its sizing from the
// environment.

#include "runtime/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>

namespace bdsmaj::runtime {
namespace {

TEST(Scheduler, DefaultThreadsHonorsEnvironment) {
    // default_global_pool_threads() re-reads the environment on every
    // call, so this is testable without touching the singleton.
    const char* saved = std::getenv("BDSMAJ_JOBS");
    const std::string saved_value = saved ? saved : "";
    const int hardware = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    ::unsetenv("BDSMAJ_JOBS");
    EXPECT_EQ(default_global_pool_threads(), hardware) << "unset means all hardware threads";
    for (const char* n : {"1", "3", "7"}) {
        ::setenv("BDSMAJ_JOBS", n, 1);
        EXPECT_EQ(default_global_pool_threads(), std::atoi(n));
    }
    // Non-positive and unparsable values fall back to the hardware count.
    for (const char* bad : {"0", "-3", "garbage"}) {
        ::setenv("BDSMAJ_JOBS", bad, 1);
        EXPECT_EQ(default_global_pool_threads(), hardware) << bad;
    }
    // A trailing suffix makes the whole value invalid, not "3".
    ::setenv("BDSMAJ_JOBS", "3x", 1);
    EXPECT_EQ(default_global_pool_threads(), hardware);
    if (saved) {
        ::setenv("BDSMAJ_JOBS", saved_value.c_str(), 1);
    } else {
        ::unsetenv("BDSMAJ_JOBS");
    }
}

TEST(Scheduler, GlobalPoolIsASingleton) {
    ThreadPool& a = global_pool();
    ThreadPool& b = global_pool();
    EXPECT_EQ(&a, &b);
    EXPECT_GE(a.size(), 1);
    EXPECT_EQ(global_pool_threads(), a.size());
    // Once the pool exists, configuration requests must be rejected
    // rather than silently resizing live workers.
    EXPECT_FALSE(configure_global_pool(64));
    EXPECT_EQ(global_pool().size(), a.size());
}

TEST(Scheduler, GlobalPoolRunsSubmittedTasks) {
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i) {
        global_pool().submit([&ran] { ran.fetch_add(1); });
    }
    global_pool().wait_idle();
    EXPECT_EQ(ran.load(), 100);
}

}  // namespace
}  // namespace bdsmaj::runtime
