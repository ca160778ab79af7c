// Process-wide scheduler: the shared global pool, environment sizing, and
// the caller-participating parallel_for with helper revocation —
// including re-entrant use from inside pool tasks, which is the property
// the whole service layer leans on.

#include "runtime/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

namespace bdsmaj::runtime {
namespace {

TEST(Scheduler, DefaultThreadsHonorsEnvironment) {
    // default_global_pool_threads() re-reads the environment on every
    // call, so this is testable without touching the singleton.
    const char* saved = std::getenv("BDSMAJ_JOBS");
    const std::string saved_value = saved ? saved : "";
    ::setenv("BDSMAJ_JOBS", "3", 1);
    EXPECT_EQ(default_global_pool_threads(), 3);
    ::setenv("BDSMAJ_JOBS", "0", 1);  // non-positive falls back to hardware
    EXPECT_GE(default_global_pool_threads(), 1);
    ::setenv("BDSMAJ_JOBS", "garbage", 1);
    EXPECT_GE(default_global_pool_threads(), 1);
    // A trailing suffix makes the whole value invalid, not "3".
    ::setenv("BDSMAJ_JOBS", "3x", 1);
    EXPECT_EQ(default_global_pool_threads(), effective_jobs(0));
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

TEST(ParallelFor, CoversAllIndicesExactlyOnceOnSharedPool) {
    constexpr std::size_t kN = 777;
    std::vector<std::atomic<int>> hits(kN);
    parallel_for(kN, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, CompletesOnASaturatedPoolAndRevokedHelpersNeverRun) {
    // Every pool worker is parked on a latch, so none of parallel_for's
    // helpers can start: the calling thread must do all the work itself.
    // When the workers are released the queued helpers finally run, but
    // they were revoked when the loop finished and must not touch the body.
    ThreadPool& pool = global_pool();
    std::latch release(1);
    std::atomic<int> parked{0};
    for (int w = 0; w < pool.size(); ++w) {
        pool.submit([&] {
            parked.fetch_add(1);
            release.wait();
        });
    }
    while (parked.load() < pool.size()) std::this_thread::yield();

    constexpr std::size_t kN = 100;
    std::vector<std::atomic<int>> hits(kN);
    std::atomic<int> calls{0};
    std::thread foreign([&] {
        parallel_for(kN, 8, [&](std::size_t i) {
            hits[i].fetch_add(1);
            calls.fetch_add(1);
        });
    });
    foreign.join();
    EXPECT_EQ(calls.load(), static_cast<int>(kN));
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);

    release.count_down();
    pool.wait_idle();
    EXPECT_EQ(calls.load(), static_cast<int>(kN));
}

TEST(ParallelFor, ReentrantFromInsidePoolTasks) {
    // A parallel_for issued from inside a pool task must complete even
    // when every pool worker is itself busy in such a task: the caller
    // participates, so no free worker is required. This would deadlock a
    // wait-for-workers design.
    const int lanes = global_pool().size() + 2;
    std::atomic<long> total{0};
    parallel_for(static_cast<std::size_t>(lanes), lanes, [&](std::size_t) {
        parallel_for(64, 4, [&](std::size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), static_cast<long>(lanes) * 64);
}

TEST(ParallelFor, DeeplyNestedStillCompletes) {
    std::atomic<long> total{0};
    parallel_for(4, 4, [&](std::size_t) {
        parallel_for(4, 4, [&](std::size_t) {
            parallel_for(4, 4, [&](std::size_t) { total.fetch_add(1); });
        });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, ManyConcurrentCallsFromForeignThreads) {
    // Several non-pool threads hammer the shared pool at once — the
    // serving pattern. Every call must see only its own indices.
    constexpr int kThreads = 6;
    constexpr std::size_t kN = 300;
    std::vector<std::thread> threads;
    std::atomic<long> grand{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&grand] {
            std::vector<std::atomic<int>> hits(kN);
            parallel_for(kN, 3, [&](std::size_t i) { hits[i].fetch_add(1); });
            long sum = 0;
            for (std::size_t i = 0; i < kN; ++i) sum += hits[i].load();
            grand.fetch_add(sum);
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(grand.load(), static_cast<long>(kThreads) * static_cast<long>(kN));
}

}  // namespace
}  // namespace bdsmaj::runtime
