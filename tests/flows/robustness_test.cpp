// Deadline-aware degradation and resource guards: jobs with impossible
// deadlines are shed without running, tight soft budgets degrade supernodes
// down the ladder instead of failing (and the result still verifies),
// resource guards (max_live_nodes / sift_max_swaps) cost one cone a retry
// instead of the whole job, EDF ordering governs dispatch within a lane,
// and wait_idle_for() bounds the paused-queue wait that wait_idle() cannot.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "benchgen/suite.hpp"
#include "decomp/flow.hpp"
#include "flows/service.hpp"
#include "network/blif.hpp"
#include "network/simulate.hpp"

namespace bdsmaj::flows {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;
using net::Network;

Network tiny_adder() {
    return net::parse_blif(
        ".model fa\n.inputs a b cin\n.outputs sum cout\n"
        ".names a b cin sum\n100 1\n010 1\n001 1\n111 1\n"
        ".names a b cin cout\n11- 1\n1-1 1\n-11 1\n.end\n");
}

TEST(Robustness, ImpossibleDeadlineIsShedWithoutRunning) {
    SynthesisService service(ServiceParams{.start_paused = true});
    SynthesisJobParams jp;
    jp.deadline = Clock::now() + 1ms;
    SynthesisService::Submission sub = service.submit(tiny_adder(), jp);
    // Hold admission past the deadline, then release: the dispatcher must
    // shed the job instead of starting it.
    std::this_thread::sleep_for(30ms);
    service.resume();
    const FlowResult r = sub.result.get();
    EXPECT_EQ(r.status, JobStatus::kDeadlineExceeded);
    EXPECT_EQ(r.start_order, FlowResult::kNoStartOrder) << "job must never run";
    EXPECT_TRUE(r.results.empty());
    EXPECT_EQ(r.degraded_supernodes, 0);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.deadline_exceeded, 1);
    EXPECT_EQ(stats.completed, 0);
    EXPECT_EQ(stats.failed, 0);
}

TEST(Robustness, ExpiredDeadlineStopsDecompositionAtCheckpoint) {
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    decomp::DecompFlowParams params;
    params.deadline = std::chrono::steady_clock::now() - 1ms;
    EXPECT_THROW((void)decomp::decompose_network(input, params),
                 decomp::DeadlineExceeded);
}

TEST(Robustness, DeadlinedHeavyJobYieldsDeadlineExceeded) {
    // A deadline far shorter than the job: whether it is shed at dispatch
    // or stopped at an in-flight checkpoint (both are legal depending on
    // scheduling), the future must yield kDeadlineExceeded with no results.
    const Network input = benchgen::benchmark_by_name("dalu", /*quick=*/true);
    SynthesisService service;
    SynthesisJobParams jp;
    jp.deadline = Clock::now() + 20ms;
    SynthesisService::Submission sub = service.submit(input, jp);
    const FlowResult r = sub.result.get();
    EXPECT_EQ(r.status, JobStatus::kDeadlineExceeded);
    EXPECT_TRUE(r.results.empty());
    EXPECT_EQ(service.stats().deadline_exceeded, 1);
}

TEST(Robustness, TightSoftBudgetDegradesButCompletesVerified) {
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    SynthesisService service;
    SynthesisJobParams jp;
    jp.flow = "bdsmaj";
    jp.soft_budget = Clock::now() + 10us;  // expired before the job even dispatches
    jp.verify = true;                      // a wrong degraded network fails the job
    SynthesisService::Submission sub = service.submit(input, jp);
    const FlowResult r = sub.result.get();
    ASSERT_EQ(r.status, JobStatus::kCompleted);
    ASSERT_EQ(r.results.size(), 1u);
    ASSERT_EQ(r.results[0].size(), 1u);
    EXPECT_GT(r.degraded_supernodes, 0) << "every supernode should degrade";
    EXPECT_EQ(r.results[0][0].engine_stats.degraded_supernodes,
              r.degraded_supernodes);
    ASSERT_TRUE(r.results[0][0].equivalence.has_value());
    EXPECT_TRUE(r.results[0][0].equivalence->equivalent);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, 1);
    EXPECT_EQ(stats.degraded_supernodes, r.degraded_supernodes);
}

TEST(Robustness, NoBudgetMeansNoDegradation) {
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    decomp::DecompFlowParams params;
    const decomp::DecompFlowResult r = decomp::decompose_network(input, params);
    EXPECT_EQ(r.engine_stats.degraded_supernodes, 0);
    EXPECT_EQ(r.engine_stats.resource_exhausted_cones, 0);
}

TEST(Robustness, LiveNodeGuardFallsDownLadderPerCone) {
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    decomp::DecompFlowParams guarded;
    guarded.manager.max_live_nodes = 24;  // trips on any non-trivial cone
    const decomp::DecompFlowResult r = decomp::decompose_network(input, guarded);
    EXPECT_GT(r.engine_stats.resource_exhausted_cones, 0)
        << "a 24-node ceiling should trip on f51m cones";
    EXPECT_GT(r.engine_stats.degraded_supernodes, 0);
    // The blow-up cost cones a cheaper stage, not the job: the result is
    // still a complete, equivalent network.
    EXPECT_TRUE(net::check_equivalent(input, r.network, net::CecParams{}).equivalent);
}

TEST(Robustness, SiftSwapGuardFallsDownLadder) {
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    decomp::DecompFlowParams guarded;
    guarded.manager.sift_max_swaps = 1;
    const decomp::DecompFlowResult r = decomp::decompose_network(input, guarded);
    EXPECT_TRUE(net::check_equivalent(input, r.network, net::CecParams{}).equivalent);
    // Guard accounting only moves when the ceiling actually tripped; either
    // way the run terminated and stayed correct, which is the contract.
    EXPECT_GE(r.engine_stats.resource_exhausted_cones, 0);
}

TEST(Robustness, CustomDegradeLadderIsValidatedUpFront) {
    const Network input = tiny_adder();
    decomp::DecompFlowParams params;
    params.soft_budget = std::chrono::steady_clock::now() - 1ms;
    params.degrade_ladder = {"no-such-preset"};
    EXPECT_THROW((void)decomp::decompose_network(input, params),
                 std::invalid_argument);
}

TEST(Robustness, ShannonPresetStandsAloneAndIsEquivalent) {
    // The degrade ladder's terminal stage is a first-class preset: plain
    // Shannon cofactoring, functionally equivalent to every other preset.
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    decomp::DecompFlowParams params;
    params.engine.preset = "shannon";
    const decomp::DecompFlowResult r = decomp::decompose_network(input, params);
    EXPECT_TRUE(net::check_equivalent(input, r.network, net::CecParams{}).equivalent);
    EXPECT_EQ(r.engine_stats.degraded_supernodes, 0);
}

TEST(Robustness, EarliestDeadlineFirstWithinLane) {
    runtime::ThreadPool pool(1);
    ServiceParams sp;
    sp.pool = &pool;
    sp.max_concurrent_jobs = 1;
    sp.start_paused = true;
    SynthesisService service(sp);

    const Network input = tiny_adder();
    SynthesisJobParams none;  // no deadline
    none.flow = "bdsmaj";
    SynthesisJobParams late = none;
    late.deadline = Clock::now() + 60s;
    SynthesisJobParams soon = none;
    soon.deadline = Clock::now() + 30s;

    SynthesisService::Submission a = service.submit(input, none);
    SynthesisService::Submission b = service.submit(input, late);
    SynthesisService::Submission c = service.submit(input, soon);
    service.resume();

    const FlowResult ra = a.result.get();
    const FlowResult rb = b.result.get();
    const FlowResult rc = c.result.get();
    ASSERT_EQ(ra.status, JobStatus::kCompleted);
    ASSERT_EQ(rb.status, JobStatus::kCompleted);
    ASSERT_EQ(rc.status, JobStatus::kCompleted);
    // EDF: the 30 s deadline dispatches first, then the 60 s one; the
    // deadline-less job goes last even though it was submitted first.
    EXPECT_LT(rc.start_order, rb.start_order);
    EXPECT_LT(rb.start_order, ra.start_order);
}

TEST(Robustness, HighPriorityLaneStillBeatsEarlierDeadlinesInNormal) {
    runtime::ThreadPool pool(1);
    ServiceParams sp;
    sp.pool = &pool;
    sp.max_concurrent_jobs = 1;
    sp.start_paused = true;
    SynthesisService service(sp);

    const Network input = tiny_adder();
    SynthesisJobParams normal;
    normal.flow = "bdsmaj";
    normal.deadline = Clock::now() + 30s;
    SynthesisJobParams high;
    high.flow = "bdsmaj";
    high.priority = JobPriority::kHigh;

    SynthesisService::Submission n = service.submit(input, normal);
    SynthesisService::Submission h = service.submit(input, high);
    service.resume();
    const FlowResult rn = n.result.get();
    const FlowResult rh = h.result.get();
    ASSERT_EQ(rn.status, JobStatus::kCompleted);
    ASSERT_EQ(rh.status, JobStatus::kCompleted);
    EXPECT_LT(rh.start_order, rn.start_order)
        << "lanes outrank deadlines: EDF only orders jobs within a lane";
}

TEST(Robustness, WaitIdleForBoundsThePausedQueueWait) {
    SynthesisService service(ServiceParams{.start_paused = true});
    SynthesisJobParams jp;
    jp.flow = "bdsmaj";
    SynthesisService::Submission sub = service.submit(tiny_adder(), jp);
    // Paused with a queued job: wait_idle() would block forever here (the
    // documented contract); the bounded form reports "not idle" instead.
    EXPECT_FALSE(service.wait_idle_for(50ms));
    service.resume();
    EXPECT_TRUE(service.wait_idle_for(60000ms));
    EXPECT_EQ(sub.result.get().status, JobStatus::kCompleted);
}

TEST(Robustness, WaitIdleForOnIdleServiceReturnsImmediately) {
    SynthesisService service;
    EXPECT_TRUE(service.wait_idle_for(0ms));
}

}  // namespace
}  // namespace bdsmaj::flows
