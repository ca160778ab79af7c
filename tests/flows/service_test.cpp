// SynthesisService: concurrent submissions must be byte-identical to
// serial runs (BLIF text, gate counts, simulation signatures), every
// future must resolve — the destructor included — and the stats counters
// must stay consistent.

#include "flows/service.hpp"

#include <gtest/gtest.h>

#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchgen/suite.hpp"
#include "network/blif.hpp"
#include "network/cec.hpp"
#include "network/simulate.hpp"

namespace bdsmaj::flows {
namespace {

using net::Network;

/// 64-bit FNV-1a over deterministic bit-parallel simulation rounds: a
/// cheap functional signature of the network.
std::uint64_t simulation_signature(const Network& net) {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    const auto mix = [&hash](std::uint64_t w) {
        for (int b = 0; b < 8; ++b) {
            hash ^= (w >> (8 * b)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    };
    std::uint64_t state = 0x5eed5eed5eed5eedull;
    const auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (int round = 0; round < 4; ++round) {
        std::vector<std::uint64_t> pi(net.inputs().size());
        for (auto& w : pi) w = next();
        for (const std::uint64_t w : net::simulate_words(net, pi)) mix(w);
    }
    return hash;
}

std::vector<Network> mcnc_inputs(std::size_t max_count) {
    std::vector<Network> inputs;
    for (const benchgen::BenchmarkCase& bc : benchgen::table_suite(/*quick=*/true)) {
        if (!bc.is_mcnc) continue;
        inputs.push_back(bc.network);
        if (inputs.size() >= max_count) break;
    }
    return inputs;
}

void expect_same_results(const std::vector<SynthesisResult>& serial,
                         const std::vector<SynthesisResult>& service,
                         const std::string& what) {
    ASSERT_EQ(serial.size(), service.size()) << what;
    for (std::size_t f = 0; f < serial.size(); ++f) {
        const SynthesisResult& a = serial[f];
        const SynthesisResult& b = service[f];
        EXPECT_EQ(a.flow_name, b.flow_name) << what;
        EXPECT_EQ(a.optimized_stats.total(), b.optimized_stats.total())
            << what << " " << a.flow_name;
        EXPECT_EQ(a.mapped.gate_count, b.mapped.gate_count) << what << " "
                                                            << a.flow_name;
        EXPECT_EQ(simulation_signature(a.optimized), simulation_signature(b.optimized))
            << what << " " << a.flow_name;
        ASSERT_EQ(net::write_blif(a.optimized), net::write_blif(b.optimized))
            << what << " " << a.flow_name << ": BLIF drifted";
    }
}

TEST(SynthesisService, SingleJobMatchesDirectRun) {
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    const std::vector<SynthesisResult> serial = run_all_flows(input);

    SynthesisService service;
    const SynthesisJobParams jp;
    SynthesisService::Submission sub = service.submit(input, jp);
    const FlowResult r = sub.result.get();
    EXPECT_EQ(r.job_id, sub.id);
    EXPECT_EQ(r.status, JobStatus::kCompleted);
    ASSERT_EQ(r.results.size(), 1u);
    expect_same_results(serial, r.results[0], "f51m");
}

TEST(SynthesisService, ConcurrentMcncSubmitsMatchSerialRuns) {
    // N concurrent submit()s of MCNC circuits produce BLIF output, gate
    // counts, and simulation signatures byte-identical to serial runs. A
    // private 4-thread pool guarantees real concurrency even on a 1-core
    // machine.
    const std::vector<Network> inputs = mcnc_inputs(6);
    std::vector<std::vector<SynthesisResult>> serial;
    serial.reserve(inputs.size());
    for (const Network& input : inputs) serial.push_back(run_all_flows(input));

    runtime::ThreadPool pool(4);
    ServiceParams sp;
    sp.pool = &pool;
    sp.max_concurrent_jobs = 4;
    SynthesisService service(sp);
    const SynthesisJobParams jp;
    std::vector<SynthesisService::Submission> subs;
    subs.reserve(inputs.size());
    for (const Network& input : inputs) subs.push_back(service.submit(input, jp));
    for (std::size_t i = 0; i < subs.size(); ++i) {
        const FlowResult r = subs[i].result.get();
        EXPECT_EQ(r.status, JobStatus::kCompleted);
        ASSERT_EQ(r.results.size(), 1u);
        expect_same_results(serial[i], r.results[0], "mcnc[" + std::to_string(i) + "]");
    }
    const ServiceStats st = service.stats();
    EXPECT_EQ(st.completed, static_cast<int>(inputs.size()));
    EXPECT_EQ(st.queued, 0);
    EXPECT_EQ(st.running, 0);
    EXPECT_EQ(st.failed, 0);
    EXPECT_EQ(st.networks_synthesized,
              static_cast<long>(inputs.size()) * 4);  // four flows per job
}

TEST(SynthesisService, SuiteJobMatchesRunSuite) {
    const std::vector<Network> inputs = mcnc_inputs(4);
    const std::vector<std::vector<SynthesisResult>> serial = run_suite(inputs);

    SynthesisService service;
    SynthesisJobParams jp;
    SynthesisService::Submission sub = service.submit_suite(inputs, jp);
    const FlowResult r = sub.result.get();
    EXPECT_EQ(r.status, JobStatus::kCompleted);
    ASSERT_EQ(r.results.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        expect_same_results(serial[i], r.results[i],
                            "suite[" + std::to_string(i) + "]");
    }
    // A single-flow suite job is run_suite with that flow name.
    const std::vector<std::vector<SynthesisResult>> pga =
        run_suite(inputs, {}, "bdspga");
    jp.flow = "bdspga";
    const FlowResult rp = service.submit_suite(inputs, jp).result.get();
    EXPECT_EQ(rp.status, JobStatus::kCompleted);
    ASSERT_EQ(rp.results.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        expect_same_results(pga[i], rp.results[i],
                            "bdspga suite[" + std::to_string(i) + "]");
    }
}

TEST(SynthesisService, SingleFlowJobsWork) {
    const Network input = benchgen::benchmark_by_name("C1355", /*quick=*/true);
    SynthesisService service;
    for (const char* flow : {"bdsmaj", "bdspga", "abc", "dc"}) {
        SynthesisJobParams jp;
        jp.flow = flow;
        SynthesisService::Submission sub = service.submit(input, jp);
        const FlowResult r = sub.result.get();
        ASSERT_EQ(r.results.size(), 1u) << flow;
        ASSERT_EQ(r.results[0].size(), 1u) << flow;
        EXPECT_GT(r.results[0][0].mapped.gate_count, 0) << flow;
    }
}

TEST(SynthesisService, DestructorRunsQueuedJobs) {
    // One job is admitted and three wait in the queue when the service
    // goes out of scope: the destructor drains, so every future yields a
    // result. A task that holds the one pool thread until every job is
    // submitted keeps the queue length deterministic.
    const std::vector<Network> inputs = mcnc_inputs(4);
    runtime::ThreadPool pool(1);
    std::promise<void> gate;
    pool.submit([opened = gate.get_future().share()] { opened.wait(); });
    std::vector<std::future<FlowResult>> futures;
    {
        ServiceParams sp;
        sp.pool = &pool;
        sp.max_concurrent_jobs = 1;
        SynthesisService service(sp);
        SynthesisJobParams jp;
        jp.flow = "bdsmaj";
        for (const Network& input : inputs) {
            futures.push_back(service.submit(input, jp).result);
        }
        EXPECT_EQ(service.stats().queued, 3);
        gate.set_value();
    }
    for (std::future<FlowResult>& f : futures) {
        EXPECT_EQ(f.get().status, JobStatus::kCompleted);
    }
}

TEST(SynthesisService, UnknownFlowFailsTheJobViaTheFuture) {
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    SynthesisService service;
    SynthesisJobParams jp;
    jp.flow = "nosuchflow";
    SynthesisService::Submission sub = service.submit(input, jp);
    EXPECT_THROW(sub.result.get(), std::invalid_argument);
    const ServiceStats st = service.stats();
    EXPECT_EQ(st.failed, 1);
    EXPECT_EQ(st.completed, 0);
    // The failure must not poison the service.
    const SynthesisJobParams defaults;
    SynthesisService::Submission ok = service.submit(input, defaults);
    EXPECT_EQ(ok.result.get().status, JobStatus::kCompleted);
}

TEST(SynthesisService, PresetJobsMatchDirectPresetRuns) {
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    FlowOptions options;
    options.preset = "exact-aggressive";
    const SynthesisResult direct = flow_bdsmaj(input, options);

    SynthesisService service;
    SynthesisJobParams jp;
    jp.flow = "bdsmaj";
    jp.preset = "exact-aggressive";
    SynthesisService::Submission sub = service.submit(input, jp);
    const FlowResult r = sub.result.get();
    EXPECT_EQ(r.status, JobStatus::kCompleted);
    const SynthesisResult& via_service = r.results.at(0).at(0);
    EXPECT_EQ(via_service.flow_name, "BDS-MAJ(exact-aggressive)");
    ASSERT_EQ(net::write_blif(direct.optimized), net::write_blif(via_service.optimized));
    EXPECT_GT(via_service.engine_stats.exact_steps, 0);
    // The paper's SIV-B knobs ride along the same way: a job is exactly
    // the flow run with its own FlowOptions.
    SynthesisJobParams tuned;
    tuned.flow = "bdsmaj";
    tuned.maj.k_local = 1.2;
    tuned.maj.max_iterations = 3;
    tuned.reorder = false;
    const SynthesisResult tuned_direct = flow_bdsmaj(input, tuned);
    SynthesisService::Submission tuned_sub = service.submit(input, tuned);
    const FlowResult tuned_r = tuned_sub.result.get();
    ASSERT_EQ(tuned_r.status, JobStatus::kCompleted);
    ASSERT_EQ(net::write_blif(tuned_direct.optimized),
              net::write_blif(tuned_r.results.at(0).at(0).optimized));
    ASSERT_EQ(net::write_blif(tuned_direct.mapped.netlist),
              net::write_blif(tuned_r.results.at(0).at(0).mapped.netlist));
    // Unknown presets fail the job through the future, like unknown flows.
    SynthesisJobParams bad;
    bad.preset = "nosuchpreset";
    SynthesisService::Submission bad_sub = service.submit(input, bad);
    EXPECT_THROW(bad_sub.result.get(), std::invalid_argument);
}

TEST(SynthesisService, StatsAggregateGateCounts) {
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    const std::vector<SynthesisResult> serial = run_all_flows(input);
    long expected_gates = 0;
    for (const SynthesisResult& r : serial) expected_gates += r.mapped.gate_count;

    SynthesisService service;
    SynthesisService::Submission sub = service.submit(input, {});
    (void)sub.result.get();
    const ServiceStats st = service.stats();
    EXPECT_EQ(st.networks_synthesized, 4);
    EXPECT_EQ(st.mapped_gates, expected_gates);
}

TEST(SynthesisService, VerifiedJobsCarryExactEquivalenceVerdicts) {
    // Service-side sign-off: every flow of a verify job records an exact
    // oracle verdict (f51m has 8 inputs, so the global check is exhaustive
    // simulation).
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    SynthesisService service;
    SynthesisJobParams jp;
    jp.verify = true;
    SynthesisService::Submission sub = service.submit(input, jp);
    const FlowResult r = sub.result.get();
    ASSERT_EQ(r.status, JobStatus::kCompleted);
    ASSERT_EQ(r.results.size(), 1u);
    ASSERT_EQ(r.results[0].size(), 4u);  // all four Table II flows
    for (const SynthesisResult& sr : r.results[0]) {
        ASSERT_TRUE(sr.equivalence.has_value()) << sr.flow_name;
        EXPECT_TRUE(sr.equivalence->equivalent) << sr.flow_name;
        EXPECT_EQ(sr.equivalence->engine, net::EquivEngine::kExhaustive) << sr.flow_name;
        EXPECT_EQ(sr.signoff.bdd_checks + sr.signoff.sat_checks +
                      sr.signoff.exhaustive_checks,
                  1 + sr.signoff.certificate_fallbacks) << sr.flow_name;
        EXPECT_GT(sr.verify_seconds, 0.0) << sr.flow_name;
    }
}

TEST(SynthesisService, UnverifiedJobsSkipTheOracle) {
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    SynthesisService service;
    SynthesisService::Submission sub = service.submit(input, {});
    const FlowResult r = sub.result.get();
    ASSERT_EQ(r.status, JobStatus::kCompleted);
    for (const SynthesisResult& sr : r.results.at(0)) {
        EXPECT_FALSE(sr.equivalence.has_value()) << sr.flow_name;
    }
}

}  // namespace
}  // namespace bdsmaj::flows
