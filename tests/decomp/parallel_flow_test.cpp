// Determinism of parallel synthesis: flows::run_suite must produce
// byte-identical results at any worker-thread count. Circuits run in
// parallel, one per runner, but each circuit's decomposition runs on one
// thread and replays its tapes in supernode order, so every output
// network — node ids, gate counts, everything down to the BLIF text —
// cannot depend on scheduling. Running several circuits at once also puts
// concurrent traffic on the shared ConeCache's one lock.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "benchgen/suite.hpp"
#include "decomp/flow.hpp"
#include "flows/flows.hpp"
#include "network/blif.hpp"
#include "network/cec.hpp"
#include "network/simulate.hpp"

namespace bdsmaj::decomp {
namespace {

using net::Network;

/// 64-bit FNV-1a over the outputs of a few deterministic bit-parallel
/// simulation rounds: a cheap functional signature of the network.
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

struct Fingerprint {
    std::string blif;
    int total_gates = 0;
    int maj_gates = 0;
    std::uint64_t signature = 0;

    bool operator==(const Fingerprint&) const = default;
};

std::vector<Network> circuits(const std::vector<std::string>& names) {
    std::vector<Network> inputs;
    for (const std::string& name : names) {
        inputs.push_back(benchgen::benchmark_by_name(name, /*quick=*/true));
    }
    return inputs;
}

/// One BDS flow over `inputs` through run_suite at `jobs`: the per-circuit
/// results, in input order.
std::vector<flows::SynthesisResult> suite_at(const std::vector<Network>& inputs,
                                             int jobs, bool use_majority) {
    flows::FlowOptions options;
    options.jobs = jobs;
    std::vector<flows::SynthesisResult> out;
    for (auto& r : flows::run_suite(inputs, options, use_majority ? "bdsmaj" : "bdspga")) {
        out.push_back(std::move(r[0]));
    }
    return out;
}

std::vector<Fingerprint> fingerprints_at(const std::vector<Network>& inputs, int jobs,
                                         bool use_majority) {
    std::vector<Fingerprint> out;
    for (const flows::SynthesisResult& r : suite_at(inputs, jobs, use_majority)) {
        out.push_back(Fingerprint{net::write_blif(r.optimized), r.optimized_stats.total(),
                                  r.optimized_stats.maj_nodes,
                                  simulation_signature(r.optimized)});
    }
    return out;
}

TEST(ParallelFlow, McncSuiteIsDeterministicAcrossJobCounts) {
    // Gate counts and simulation signatures — and, stronger, the whole
    // BLIF text — identical for jobs = 1, 2, 8 on the MCNC suite.
    std::vector<std::string> names;
    std::vector<Network> inputs;
    for (benchgen::BenchmarkCase& bc : benchgen::table_suite(/*quick=*/true)) {
        if (!bc.is_mcnc) continue;
        names.push_back(bc.name);
        inputs.push_back(std::move(bc.network));
    }
    ASSERT_GE(inputs.size(), 4u);
    const std::vector<Fingerprint> serial = fingerprints_at(inputs, 1, true);
    for (const int jobs : {2, 8}) {
        const std::vector<Fingerprint> parallel = fingerprints_at(inputs, jobs, true);
        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial[i].total_gates, parallel[i].total_gates)
                << names[i] << " jobs=" << jobs;
            EXPECT_EQ(serial[i].maj_gates, parallel[i].maj_gates)
                << names[i] << " jobs=" << jobs;
            EXPECT_EQ(serial[i].signature, parallel[i].signature)
                << names[i] << " jobs=" << jobs;
            ASSERT_EQ(serial[i].blif, parallel[i].blif)
                << names[i] << ": output network drifted at jobs=" << jobs;
        }
    }
}

TEST(ParallelFlow, BdsPgaModeIsDeterministicToo) {
    const std::vector<Network> inputs = circuits({"C1355", "alu2", "f51m", "C6288"});
    EXPECT_EQ(fingerprints_at(inputs, 1, false), fingerprints_at(inputs, 8, false));
}

TEST(ParallelFlow, HardwareJobsSettingIsDeterministic) {
    // jobs <= 0 resolves to all hardware threads; output must still match.
    const std::vector<Network> inputs = circuits({"f51m", "alu2", "C1355", "vda"});
    EXPECT_EQ(fingerprints_at(inputs, 1, true), fingerprints_at(inputs, 0, true));
}

TEST(ParallelFlow, ParallelResultIsEquivalentToInput) {
    // Determinism is necessary but not sufficient — the jobs=8 results must
    // also still compute the input functions.
    const std::vector<std::string> names = {"dalu", "apex6", "f51m", "alu2"};
    const std::vector<Network> inputs = circuits(names);
    const std::vector<flows::SynthesisResult> results = suite_at(inputs, 8, true);
    ASSERT_EQ(results.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        EXPECT_TRUE(net::check_equivalent(inputs[i], results[i].optimized).equivalent)
            << names[i];
    }
}

TEST(ParallelFlow, EngineStatsMatchAcrossJobCounts) {
    const std::vector<Network> inputs = circuits({"C6288", "dalu", "alu2", "f51m"});
    const std::vector<flows::SynthesisResult> r1 = suite_at(inputs, 1, true);
    const std::vector<flows::SynthesisResult> r8 = suite_at(inputs, 8, true);
    ASSERT_EQ(r1.size(), r8.size());
    for (std::size_t i = 0; i < r1.size(); ++i) {
        const EngineStats& a = r1[i].engine_stats;
        const EngineStats& b = r8[i].engine_stats;
        EXPECT_EQ(a.and_steps, b.and_steps) << i;
        EXPECT_EQ(a.or_steps, b.or_steps) << i;
        EXPECT_EQ(a.xor_steps, b.xor_steps) << i;
        EXPECT_EQ(a.maj_steps, b.maj_steps) << i;
        EXPECT_EQ(a.mux_steps, b.mux_steps) << i;
        EXPECT_EQ(a.maj_attempts, b.maj_attempts) << i;
        EXPECT_EQ(a.maj_rejected, b.maj_rejected) << i;
        EXPECT_EQ(a.literal_leaves, b.literal_leaves) << i;
    }
}

}  // namespace
}  // namespace bdsmaj::decomp
