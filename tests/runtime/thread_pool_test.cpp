// FIFO thread pool: completeness (every task runs exactly once), nested
// submission, skewed loads, and draining the queue at destruction.
// (The shared global pool is covered in tests/runtime/scheduler_test.cpp.)

#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>


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

}  // namespace
}  // namespace bdsmaj::runtime
