// Chaos suite: deterministic fault injection against the synthesis
// service. Built into its own binary (ctest label `chaos`) because it
// arms the process-wide FaultInjector; run via tools/ci.sh's chaos stage
// with -DBDSMAJ_FAULT_INJECT=ON under ASan. The properties under test:
//
//   * every future is always fulfilled — a fault never strands a waiter;
//   * the service drains within a bound (wait_idle_for) — no deadlock,
//     no leaked jobs — and stays usable afterwards;
//   * a faulted job reports kFailed with the injection site named in the
//     error carried by its future;
//   * concurrent jobs that were NOT faulted produce BLIF byte-identical
//     to serial runs — chaos never corrupts a survivor;
//   * injection schedules are a pure function of (seed, site, hit), so
//     every failure here reproduces.
//
// Each test skips when the hooks are compiled out, so the binary is
// buildable (and vacuously green) in normal configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "benchgen/suite.hpp"
#include "flows/flows.hpp"
#include "flows/service.hpp"
#include "network/blif.hpp"
#include "runtime/fault_inject.hpp"

namespace bdsmaj {
namespace {

using namespace std::chrono_literals;
using flows::FlowResult;
using flows::JobStatus;
using flows::SynthesisJobParams;
using flows::SynthesisService;
using net::Network;
using runtime::FaultInjector;
using runtime::FaultPlan;
using runtime::FaultSite;

constexpr std::uint32_t site_bit(FaultSite s) {
    return 1u << static_cast<int>(s);
}

/// Arms on construction, disarms on destruction — a failing assertion must
/// not leave the process-wide injector armed for the next test.
struct ArmGuard {
    explicit ArmGuard(const FaultPlan& plan) {
        FaultInjector::instance().reset_counters();
        FaultInjector::instance().arm(plan);
    }
    ~ArmGuard() { FaultInjector::instance().disarm(); }
};

std::vector<Network> small_inputs(std::size_t count) {
    std::vector<Network> inputs;
    for (const benchgen::BenchmarkCase& bc : benchgen::table_suite(/*quick=*/true)) {
        if (!bc.is_mcnc) continue;
        inputs.push_back(bc.network);
        if (inputs.size() >= count) break;
    }
    return inputs;
}

TEST(FaultInjectorSchedule, IsDeterministicPerSeed) {
    // check() is compiled unconditionally (only the call sites are gated),
    // so the schedule contract is testable in every configuration.
    FaultInjector& inj = FaultInjector::instance();
    FaultPlan plan;
    plan.seed = 20260809;
    plan.throw_rate = 0.3;
    const auto run = [&inj](const FaultPlan& p) {
        std::vector<int> thrown;
        inj.reset_counters();
        inj.arm(p);
        for (int i = 0; i < 500; ++i) {
            try {
                inj.check(FaultSite::kSatSolve);
                thrown.push_back(0);
            } catch (const runtime::InjectedFault& f) {
                EXPECT_EQ(f.site(), FaultSite::kSatSolve);
                thrown.push_back(1);
            }
        }
        inj.disarm();
        return thrown;
    };
    const std::vector<int> a = run(plan);
    const std::vector<int> b = run(plan);
    EXPECT_EQ(a, b) << "same seed must reproduce the same schedule";
    const long injected = std::count(a.begin(), a.end(), 1);
    EXPECT_GT(injected, 100);
    EXPECT_LT(injected, 250);
    FaultPlan other = plan;
    other.seed = 42;
    EXPECT_NE(run(other), a) << "a different seed explores a different schedule";
}

TEST(FaultInjectorSchedule, SkipFirstAndSiteMaskAreHonored) {
    FaultInjector& inj = FaultInjector::instance();
    FaultPlan plan;
    plan.throw_rate = 1.0;
    plan.skip_first = 10;
    plan.site_mask = site_bit(FaultSite::kSatSolve);
    inj.reset_counters();
    inj.arm(plan);
    for (int i = 0; i < 10; ++i) {
        EXPECT_NO_THROW(inj.check(FaultSite::kSatSolve)) << "hit " << i;
    }
    EXPECT_THROW(inj.check(FaultSite::kSatSolve), runtime::InjectedFault);
    // Masked-out sites never fault regardless of rate.
    EXPECT_NO_THROW(inj.check(FaultSite::kManagerAlloc));
    inj.disarm();
    EXPECT_EQ(inj.injected(FaultSite::kSatSolve), 1u);
    EXPECT_EQ(inj.injected(FaultSite::kManagerAlloc), 0u);
}

TEST(ChaosService, EntryFaultsNameTheSiteAndNeverStrandAFuture) {
    if (!runtime::fault_injection_compiled()) {
        GTEST_SKIP() << "build with -DBDSMAJ_FAULT_INJECT=ON";
    }
    FaultPlan plan;
    plan.throw_rate = 1.0;
    plan.site_mask = site_bit(FaultSite::kWorkerTaskEntry);
    ArmGuard guard(plan);

    SynthesisService service;
    SynthesisJobParams jp;
    jp.flow = "bdsmaj";
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    std::vector<SynthesisService::Submission> subs;
    for (int i = 0; i < 4; ++i) subs.push_back(service.submit(input, jp));
    ASSERT_TRUE(service.wait_idle_for(60000ms)) << "service failed to drain";
    for (auto& sub : subs) {
        try {
            (void)sub.result.get();
            FAIL() << "every job was faulted at entry; none may succeed";
        } catch (const std::exception& e) {
            EXPECT_NE(std::string(e.what()).find("worker-task-entry"),
                      std::string::npos)
                << e.what();
        }
    }
    const flows::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.failed, 4);
    EXPECT_EQ(stats.queued, 0);
    EXPECT_EQ(stats.running, 0);
}

TEST(ChaosService, DeepFaultSeedSweepFulfillsEveryFuture) {
    if (!runtime::fault_injection_compiled()) {
        GTEST_SKIP() << "build with -DBDSMAJ_FAULT_INJECT=ON";
    }
    // Faults planted deep inside the engine — BDD allocation, SAT solves,
    // cone-cache inserts — plus delay jitter, across
    // several seeds. The unwinding path crosses pooled managers (which
    // must be discarded, not reused) and shared caches (which must never
    // tear); ASan in the chaos CI stage watches the cleanup.
    const std::vector<Network> inputs = small_inputs(3);
    ASSERT_FALSE(inputs.empty());
    // Survivor outputs, checked against serial baselines at the end — the
    // baselines run AFTER the sweep so the first chaos seed works a cold
    // cone cache (inserts and full BDD builds under fire), not replays.
    std::vector<std::pair<std::size_t, std::string>> survivors;
    std::uint64_t total_injected = 0;
    for (const std::uint64_t seed : {1ull, 7ull, 99ull}) {
        FaultPlan plan;
        plan.seed = seed;
        // ~1.5k manager-alloc hits per cold f51m-class job: this rate makes
        // a fault in any given job roughly a coin flip, so the sweep sees
        // both failed jobs and survivors at every seed.
        plan.throw_rate = 0.0005;
        plan.delay_rate = 0.001;
        plan.delay = 100us;
        plan.skip_first = 200;
        plan.site_mask = site_bit(FaultSite::kManagerAlloc) |
                         site_bit(FaultSite::kSatSolve) |
                         site_bit(FaultSite::kConeCacheInsert);
        ArmGuard guard(plan);

        runtime::ThreadPool pool(4);
        flows::ServiceParams sp;
        sp.pool = &pool;
        sp.max_concurrent_jobs = 3;
        SynthesisService service(sp);
        SynthesisJobParams jp;
        jp.flow = "bdsmaj";
        jp.jobs = 2;
        std::vector<SynthesisService::Submission> subs;
        for (int round = 0; round < 2; ++round) {
            for (const Network& input : inputs) {
                subs.push_back(service.submit(input, jp));
            }
        }
        ASSERT_TRUE(service.wait_idle_for(120000ms))
            << "seed " << seed << ": service failed to drain";
        int completed = 0, failed = 0;
        for (std::size_t i = 0; i < subs.size(); ++i) {
            // The idle counters flip just before the promise is resolved
            // (by design — see service.cpp), so allow a bounded grace
            // instead of demanding instant readiness.
            ASSERT_EQ(subs[i].result.wait_for(30s), std::future_status::ready)
                << "seed " << seed << ": future " << i << " never fulfilled";
            try {
                const FlowResult r = subs[i].result.get();
                ASSERT_EQ(r.status, JobStatus::kCompleted);
                ASSERT_EQ(r.results.size(), 1u);
                survivors.emplace_back(
                    i % inputs.size(),
                    net::write_blif(r.results[0][0].optimized));
                ++completed;
            } catch (const std::exception& e) {
                EXPECT_NE(std::string(e.what()).find("injected fault at site"),
                          std::string::npos)
                    << "seed " << seed << ": unexpected error: " << e.what();
                ++failed;
            }
        }
        const flows::ServiceStats stats = service.stats();
        EXPECT_EQ(stats.completed, completed) << "seed " << seed;
        EXPECT_EQ(stats.failed, failed) << "seed " << seed;
        EXPECT_EQ(stats.queued, 0) << "seed " << seed;
        EXPECT_EQ(stats.running, 0) << "seed " << seed;
        EXPECT_EQ(completed + failed, static_cast<int>(subs.size()))
            << "seed " << seed;
        for (int s = 0; s < runtime::kFaultSiteCount; ++s) {
            total_injected +=
                FaultInjector::instance().injected(static_cast<FaultSite>(s));
        }
    }
    // The sweep must actually have injected something, or the properties
    // above were tested against thin air. (Counters reset per seed; the
    // sum above accumulated each seed's tally before the reset.)
    EXPECT_GT(total_injected, 0u) << "no faults fired across the whole sweep";
    // Survivors are byte-identical to serial runs: chaos may kill a job,
    // never corrupt one. (Injector is disarmed here.)
    std::vector<std::string> baseline;
    for (const Network& input : inputs) {
        baseline.push_back(
            net::write_blif(flows::flow_bdsmaj(input).optimized));
    }
    for (const auto& [idx, blif] : survivors) {
        EXPECT_EQ(blif, baseline[idx]) << "survivor of input " << idx << " drifted";
    }
}

TEST(ChaosService, DelayOnlyJitterChangesNothing) {
    if (!runtime::fault_injection_compiled()) {
        GTEST_SKIP() << "build with -DBDSMAJ_FAULT_INJECT=ON";
    }
    // Pure reordering jitter: delays at the shallow sites, no throws.
    // Every job must complete with byte-identical output.
    const std::vector<Network> inputs = small_inputs(3);
    std::vector<std::string> baseline;
    for (const Network& input : inputs) {
        baseline.push_back(
            net::write_blif(flows::flow_bdsmaj(input).optimized));
    }
    FaultPlan plan;
    plan.delay_rate = 1.0;  // every masked hit delays: the jitter is certain
    plan.delay = 200us;
    plan.site_mask = site_bit(FaultSite::kWorkerTaskEntry) |
                     site_bit(FaultSite::kConeCacheInsert) |
                     site_bit(FaultSite::kSatSolve);
    ArmGuard guard(plan);

    runtime::ThreadPool pool(4);
    flows::ServiceParams sp;
    sp.pool = &pool;
    sp.max_concurrent_jobs = 3;
    SynthesisService service(sp);
    SynthesisJobParams jp;
    jp.flow = "bdsmaj";
    jp.jobs = 2;
    std::vector<SynthesisService::Submission> subs;
    for (const Network& input : inputs) subs.push_back(service.submit(input, jp));
    ASSERT_TRUE(service.wait_idle_for(120000ms));
    for (std::size_t i = 0; i < subs.size(); ++i) {
        const FlowResult r = subs[i].result.get();
        ASSERT_EQ(r.status, JobStatus::kCompleted);
        EXPECT_EQ(net::write_blif(r.results[0][0].optimized), baseline[i]);
    }
    EXPECT_GT(FaultInjector::instance().delayed(FaultSite::kConeCacheInsert) +
                  FaultInjector::instance().delayed(FaultSite::kSatSolve) +
                  FaultInjector::instance().delayed(FaultSite::kWorkerTaskEntry),
              0u)
        << "the jitter plan never fired — the test proved nothing";
}

TEST(ChaosService, ServiceStaysUsableAfterAChaosEpisode) {
    if (!runtime::fault_injection_compiled()) {
        GTEST_SKIP() << "build with -DBDSMAJ_FAULT_INJECT=ON";
    }
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    SynthesisService service;
    SynthesisJobParams jp;
    jp.flow = "bdsmaj";
    {
        FaultPlan plan;
        plan.throw_rate = 1.0;
        plan.site_mask = site_bit(FaultSite::kWorkerTaskEntry);
        ArmGuard guard(plan);
        SynthesisService::Submission doomed = service.submit(input, jp);
        EXPECT_THROW((void)doomed.result.get(), std::exception);
        ASSERT_TRUE(service.wait_idle_for(60000ms));
    }
    // Disarmed: the same service completes the same job normally.
    SynthesisService::Submission fine = service.submit(input, jp);
    const FlowResult r = fine.result.get();
    EXPECT_EQ(r.status, JobStatus::kCompleted);
    const flows::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.failed, 1);
    EXPECT_EQ(stats.completed, 1);
}

}  // namespace
}  // namespace bdsmaj
