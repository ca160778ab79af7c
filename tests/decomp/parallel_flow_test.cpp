// Determinism of the parallel supernode pipeline: decompose_network must
// produce byte-identical results at any worker-thread count. Tapes are
// built in parallel but replayed serially in supernode order, so the
// output network — node ids, gate counts, everything down to the BLIF
// text — cannot depend on scheduling.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "benchgen/suite.hpp"
#include "decomp/flow.hpp"
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

Fingerprint fingerprint_at(const Network& input, int jobs, bool use_majority) {
    DecompFlowParams params;
    params.engine.use_majority = use_majority;
    params.jobs = jobs;
    const DecompFlowResult r = decompose_network(input, params);
    const net::NetworkStats s = r.network.stats();
    return Fingerprint{net::write_blif(r.network), s.total(), s.maj_nodes,
                       simulation_signature(r.network)};
}

TEST(ParallelFlow, McncSuiteIsDeterministicAcrossJobCounts) {
    // The ISSUE's contract: gate counts and simulation signatures — and,
    // stronger, the whole BLIF text — identical for jobs = 1, 2, 8 on the
    // MCNC suite.
    for (const benchgen::BenchmarkCase& bc : benchgen::table_suite(/*quick=*/true)) {
        if (!bc.is_mcnc) continue;
        const Fingerprint serial = fingerprint_at(bc.network, 1, true);
        for (const int jobs : {2, 8}) {
            const Fingerprint parallel = fingerprint_at(bc.network, jobs, true);
            EXPECT_EQ(serial.total_gates, parallel.total_gates)
                << bc.name << " jobs=" << jobs;
            EXPECT_EQ(serial.maj_gates, parallel.maj_gates)
                << bc.name << " jobs=" << jobs;
            EXPECT_EQ(serial.signature, parallel.signature)
                << bc.name << " jobs=" << jobs;
            ASSERT_EQ(serial.blif, parallel.blif)
                << bc.name << ": output network drifted at jobs=" << jobs;
        }
    }
}

TEST(ParallelFlow, TightReplayWindowIsStillByteIdentical) {
    // The pipelined replay bounds decomposed-but-unreplayed tapes with a
    // window; even the tightest window (1) — which forces maximal
    // blocking between decomposers and the replayer — must not change a
    // byte of the output.
    const Network input = benchgen::benchmark_by_name("C6288", /*quick=*/true);
    const Fingerprint serial = fingerprint_at(input, 1, true);
    for (const int window : {1, 3}) {
        DecompFlowParams params;
        params.jobs = 8;
        params.replay_window = window;
        const DecompFlowResult r = decompose_network(input, params);
        const net::NetworkStats s = r.network.stats();
        EXPECT_EQ(serial.total_gates, s.total()) << "window " << window;
        ASSERT_EQ(serial.blif, net::write_blif(r.network)) << "window " << window;
    }
}

TEST(ParallelFlow, BdsPgaModeIsDeterministicToo) {
    const Network input = benchgen::benchmark_by_name("C1355", /*quick=*/true);
    const Fingerprint serial = fingerprint_at(input, 1, false);
    const Fingerprint parallel = fingerprint_at(input, 8, false);
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelFlow, HardwareJobsSettingIsDeterministic) {
    // jobs <= 0 resolves to all hardware threads; output must still match.
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    const Fingerprint serial = fingerprint_at(input, 1, true);
    const Fingerprint hw = fingerprint_at(input, 0, true);
    EXPECT_EQ(serial, hw);
}

TEST(ParallelFlow, ParallelResultIsEquivalentToInput) {
    // Determinism is necessary but not sufficient — the jobs=8 result must
    // also still compute the input function.
    for (const char* name : {"dalu", "apex6"}) {
        const Network input = benchgen::benchmark_by_name(name, /*quick=*/true);
        DecompFlowParams params;
        params.jobs = 8;
        const DecompFlowResult r = decompose_network(input, params);
        EXPECT_TRUE(net::check_equivalent(input, r.network).equivalent) << name;
    }
}

TEST(ParallelFlow, EngineStatsMatchAcrossJobCounts) {
    const Network input = benchgen::benchmark_by_name("C6288", /*quick=*/true);
    DecompFlowParams p1, p8;
    p8.jobs = 8;
    const DecompFlowResult r1 = decompose_network(input, p1);
    const DecompFlowResult r8 = decompose_network(input, p8);
    EXPECT_EQ(r1.supernode_count, r8.supernode_count);
    EXPECT_EQ(r1.engine_stats.and_steps, r8.engine_stats.and_steps);
    EXPECT_EQ(r1.engine_stats.or_steps, r8.engine_stats.or_steps);
    EXPECT_EQ(r1.engine_stats.xor_steps, r8.engine_stats.xor_steps);
    EXPECT_EQ(r1.engine_stats.maj_steps, r8.engine_stats.maj_steps);
    EXPECT_EQ(r1.engine_stats.mux_steps, r8.engine_stats.mux_steps);
    EXPECT_EQ(r1.engine_stats.maj_attempts, r8.engine_stats.maj_attempts);
    EXPECT_EQ(r1.engine_stats.maj_rejected, r8.engine_stats.maj_rejected);
    EXPECT_EQ(r1.engine_stats.literal_leaves, r8.engine_stats.literal_leaves);
}

}  // namespace
}  // namespace bdsmaj::decomp
