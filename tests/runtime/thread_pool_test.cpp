// FIFO thread pool: completeness (every task runs exactly once), nested
// submission, skewed loads, and draining the queue at destruction. Each
// test observes completion through the draining destructor by scoping the
// pool.

#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>


namespace bdsmaj::runtime {
namespace {

TEST(ThreadPool, RunsEveryTaskOnce) {
    constexpr int kTasks = 500;
    std::vector<std::atomic<int>> hits(kTasks);
    {
        ThreadPool pool(4);
        for (int i = 0; i < kTasks; ++i) {
            pool.submit([&hits, i] { hits[static_cast<std::size_t>(i)].fetch_add(1); });
        }
    }
    for (int i = 0; i < kTasks; ++i) {
        EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
    }
}

TEST(ThreadPool, TasksMaySubmitSubtasks) {
    // Subtasks queued while the destructor drains still run: a worker
    // exits only once the queue is empty.
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 8; ++i) {
            pool.submit([&pool, &count] {
                count.fetch_add(1);
                for (int j = 0; j < 4; ++j) {
                    pool.submit([&count] { count.fetch_add(1); });
                }
            });
        }
    }
    EXPECT_EQ(count.load(), 8 + 8 * 4);
}

TEST(ThreadPool, SkewedLoadIsStolen) {
    // One deliberately slow task plus many fast ones: the idle workers take
    // the fast tasks off the shared queue while the slow one runs, and the
    // destructor still sees everything finish.
    std::atomic<int> done{0};
    {
        ThreadPool pool(4);
        pool.submit([&done] {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            done.fetch_add(1);
        });
        for (int i = 0; i < 100; ++i) {
            pool.submit([&done] { done.fetch_add(1); });
        }
    }
    EXPECT_EQ(done.load(), 101);
}

TEST(ThreadPool, DrainPolicyRunsEverythingQueuedAtDestruction) {
    // The service layer makes "destroy while tasks are still queued"
    // reachable; the destructor drains the queue, so no submitted task may
    // be lost.
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 200; ++i) {
            pool.submit([&ran] { ran.fetch_add(1); });
        }
        // the destructor drains
    }
    EXPECT_EQ(ran.load(), 200);
}

}  // namespace
}  // namespace bdsmaj::runtime
