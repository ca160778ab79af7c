// Deadline-aware degradation and resource guards: jobs with impossible
// deadlines are shed without running, tight soft budgets degrade supernodes
// down the ladder instead of failing (and the result still verifies),
// resource guards (max_live_nodes / sift_max_swaps) cost one cone a retry
// instead of the whole job, and deadlines never reorder the FIFO queue.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <vector>

#include "benchgen/suite.hpp"
#include "decomp/cone_cache.hpp"
#include "decomp/flow.hpp"
#include "flows/service.hpp"
#include "network/blif.hpp"
#include "network/cec.hpp"

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
    SynthesisService service;
    SynthesisJobParams jp;
    jp.deadline = Clock::now() - 1ms;
    // The deadline has passed before the job reaches the front of the
    // queue: the dispatcher must shed it instead of starting it.
    SynthesisService::Submission sub = service.submit(tiny_adder(), jp);
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
    // Armed but never triggered (a far-future soft budget), the
    // degradation machinery must not change a single byte.
    decomp::DecompFlowParams armed;
    armed.soft_budget = Clock::now() + 1h;
    const decomp::DecompFlowResult a = decomp::decompose_network(input, armed);
    EXPECT_EQ(a.engine_stats.degraded_supernodes, 0);
    EXPECT_EQ(net::write_blif(a.network), net::write_blif(r.network));
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
    // One swap per sift trips the guard on most of f51m's cones: each trip
    // poisons the flow's manager, which must be replaced before the next
    // stage or supernode. With the cache on or off the run completes,
    // stays equivalent, and accounts for the trips.
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    for (const bool cone_cache : {true, false}) {
        decomp::ConeCache::instance().clear();
        decomp::DecompFlowParams guarded;
        guarded.manager.sift_max_swaps = 1;
        guarded.cone_cache = cone_cache;
        const decomp::DecompFlowResult r = decomp::decompose_network(input, guarded);
        EXPECT_TRUE(net::check_equivalent(input, r.network, net::CecParams{}).equivalent)
            << "cone_cache=" << cone_cache;
        EXPECT_GT(r.engine_stats.resource_exhausted_cones, 0) << "cone_cache=" << cone_cache;
        EXPECT_GT(r.engine_stats.degraded_supernodes, 0) << "cone_cache=" << cone_cache;
    }
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

TEST(Robustness, MixedDeadlinesDispatchInSubmissionOrder) {
    // The queue is FIFO: deadlines decide whether a job is shed, never
    // when it runs. A task holding the one pool thread queues every job
    // before the first one can start.
    runtime::ThreadPool pool(1);
    std::promise<void> gate;
    pool.submit([opened = gate.get_future().share()] { opened.wait(); });
    ServiceParams sp;
    sp.pool = &pool;
    sp.max_concurrent_jobs = 1;
    SynthesisService service(sp);

    const Network input = tiny_adder();
    SynthesisJobParams none;  // no deadline
    none.flow = "bdsmaj";
    SynthesisJobParams late = none;
    late.deadline = Clock::now() + 60s;
    SynthesisJobParams soon = none;
    soon.deadline = Clock::now() + 30s;

    std::vector<SynthesisService::Submission> subs;
    for (const SynthesisJobParams* jp : {&none, &late, &soon, &none}) {
        subs.push_back(service.submit(input, *jp));
    }
    EXPECT_EQ(service.stats().queued, 3);
    gate.set_value();
    for (std::size_t i = 0; i < subs.size(); ++i) {
        const FlowResult r = subs[i].result.get();
        ASSERT_EQ(r.status, JobStatus::kCompleted) << "job " << i;
        EXPECT_EQ(r.start_order, i) << "job " << i;
    }
}

}  // namespace
}  // namespace bdsmaj::flows
