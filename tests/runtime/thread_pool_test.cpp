// FIFO thread pool: completeness (every task runs exactly once), nested
// submission, skewed loads, and draining the queue at destruction.
// (parallel_for and the shared global pool are covered in
// tests/runtime/scheduler_test.cpp.)

#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "runtime/scheduler.hpp"

namespace bdsmaj::runtime {
namespace {

TEST(ThreadPool, RunsEveryTaskOnce) {
    ThreadPool pool(4);
    constexpr int kTasks = 500;
    std::vector<std::atomic<int>> hits(kTasks);
    for (int i = 0; i < kTasks; ++i) {
        pool.submit([&hits, i] { hits[static_cast<std::size_t>(i)].fetch_add(1); });
    }
    pool.wait_idle();
    for (int i = 0; i < kTasks; ++i) {
        EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
    }
}

TEST(ThreadPool, TasksMaySubmitSubtasks) {
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&pool, &count] {
            count.fetch_add(1);
            for (int j = 0; j < 4; ++j) {
                pool.submit([&count] { count.fetch_add(1); });
            }
        });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), 8 + 8 * 4);
}

TEST(ThreadPool, SkewedLoadIsStolen) {
    // One deliberately slow task plus many fast ones: the idle workers take
    // the fast tasks off the shared queue while the slow one runs, and
    // wait_idle still sees everything finish.
    ThreadPool pool(4);
    std::atomic<int> done{0};
    pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        done.fetch_add(1);
    });
    for (int i = 0; i < 100; ++i) {
        pool.submit([&done] { done.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(done.load(), 101);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
    ThreadPool pool(2);
    pool.wait_idle();  // must not hang
    SUCCEED();
}

TEST(ThreadPool, DrainPolicyRunsEverythingQueuedAtDestruction) {
    // The service layer makes "destroy while tasks are still queued"
    // reachable; the destructor drains the queue, so no submitted task may
    // be lost, even without a wait_idle.
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 200; ++i) {
            pool.submit([&ran] { ran.fetch_add(1); });
        }
        // no wait_idle: the destructor drains
    }
    EXPECT_EQ(ran.load(), 200);
}

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
    constexpr std::size_t kN = 777;
    std::vector<std::atomic<int>> hits(kN);
    parallel_for(kN, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, InlineWhenSerial) {
    // jobs <= 1 runs on the calling thread.
    const std::thread::id self = std::this_thread::get_id();
    std::size_t visited = 0;
    parallel_for(16, 1, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        ++visited;
    });
    EXPECT_EQ(visited, 16u);
}

TEST(ParallelFor, BodyExceptionRethrownOnCaller) {
    // An exception inside a task must surface on the calling thread, not
    // std::terminate a pool worker; remaining indices still run.
    std::atomic<int> ran{0};
    EXPECT_THROW(
        parallel_for(50, 4,
                     [&](std::size_t i) {
                         ran.fetch_add(1);
                         if (i == 7) throw std::runtime_error("boom");
                     }),
        std::runtime_error);
    EXPECT_EQ(ran.load(), 50);
}

TEST(EffectiveJobs, ResolvesRequests) {
    EXPECT_EQ(effective_jobs(1), 1);
    EXPECT_EQ(effective_jobs(7), 7);
    EXPECT_GE(effective_jobs(0), 1) << "0 means all hardware threads";
    EXPECT_GE(effective_jobs(-3), 1);
}

}  // namespace
}  // namespace bdsmaj::runtime
