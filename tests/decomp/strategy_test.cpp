// The strategy framework contract: the `paper` preset is byte-identical
// to the pre-framework ladder (golden fingerprints captured from the
// monolithic engine before the refactor), every preset passes the BDD
// equivalence oracle on the MCNC suite, the exact-aggressive preset
// strictly reduces mapped gate count, two identical exact-aggressive runs
// emit the same bytes, and per-strategy step counts sum to total steps.

#include "decomp/strategy.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "benchgen/suite.hpp"
#include "decomp/cone_cache.hpp"
#include "decomp/flow.hpp"
#include "flows/flows.hpp"
#include "mapping/mapper.hpp"
#include "network/blif.hpp"
#include "network/builder.hpp"
#include "network/cec.hpp"
#include "tt/truth_table.hpp"

namespace bdsmaj::decomp {
namespace {

using net::Network;

std::uint64_t fnv64(const std::string& s) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

DecompFlowResult run_preset(const Network& input, const std::string& preset,
                            bool use_majority = true) {
    DecompFlowParams params;
    params.engine.preset = preset;
    params.engine.use_majority = use_majority;
    return decompose_network(input, params);
}

TEST(Strategy, PresetCatalogAndResolution) {
    EXPECT_TRUE(is_known_preset("paper"));
    EXPECT_TRUE(is_known_preset("exact-aggressive"));
    EXPECT_FALSE(is_known_preset("nope"));
    EXPECT_THROW((void)preset_pipeline("nope"), std::invalid_argument);
    // Retired presets: the BDS-PGA spelling of `paper` (use_majority=false
    // is the one way to ask for it) and two cost-model variants with more
    // area than `best-cost` and more delay than `paper`.
    for (const char* retired : {"bds-pga", "best-literals", "maj-depth"}) {
        EXPECT_FALSE(is_known_preset(retired)) << retired;
        EXPECT_THROW((void)preset_pipeline(retired), std::invalid_argument) << retired;
    }
    EXPECT_EQ(preset_catalog().size(), 5u);
    for (const PresetInfo& p : preset_catalog()) {
        const StrategyPipelineConfig config = preset_pipeline(p.name);
        ASSERT_FALSE(config.order.empty()) << p.name;
        // Termination guarantee: Shannon is always present.
        EXPECT_NE(std::find(config.order.begin(), config.order.end(),
                            StrategyKind::kShannonMux),
                  config.order.end())
            << p.name;
    }
    // The paper preset is exactly the published ladder.
    const StrategyPipelineConfig paper = preset_pipeline("paper");
    ASSERT_EQ(paper.order.size(), 4u);
    EXPECT_EQ(paper.order[0], StrategyKind::kMajority);
    EXPECT_EQ(paper.order[1], StrategyKind::kSimpleDominator);
    EXPECT_EQ(paper.order[2], StrategyKind::kGeneralizedXor);
    EXPECT_EQ(paper.order[3], StrategyKind::kShannonMux);
    EXPECT_EQ(paper.selection, SelectionMode::kFirstFit);
}

TEST(Strategy, UnknownPresetThrowsAtDecomposerConstruction) {
    bdd::Manager mgr(2);
    net::Network network;
    net::HashedNetworkBuilder builder(network);
    EngineParams params;
    params.preset = "definitely-not-a-preset";
    EXPECT_THROW(BddDecomposer(mgr, builder, {}, params), std::invalid_argument);
}

// Golden fingerprints of the pre-refactor monolithic engine (captured on
// the quick MCNC suite before the strategy framework landed):
// {circuit, use_majority, total gates, MAJ gates, FNV-1a of the BLIF}.
// The `paper` preset (with and without use_majority, the BDS-PGA
// baseline) must stay byte-for-byte on this table.
struct Golden {
    const char* name;
    bool use_majority;
    int total_gates;
    int maj_gates;
    std::uint64_t blif_fnv;
};
constexpr Golden kGolden[] = {
    {"alu2", true, 65, 4, 0x8ad2732e8caf97bdull},
    {"alu2", false, 73, 0, 0x77f30ed2b6b1c721ull},
    {"C6288", true, 224, 48, 0xa52394c7bb50f121ull},
    {"C6288", false, 568, 0, 0xf2ec24e07903c353ull},
    {"C1355", true, 169, 0, 0x3d5eb9fabeccf4ffull},
    {"C1355", false, 169, 0, 0x3d5eb9fabeccf4ffull},
    {"dalu", true, 329, 23, 0x0ec71c68c84217d1ull},
    {"dalu", false, 437, 0, 0x80155b169f01b7e8ull},
    {"apex6", true, 523, 2, 0x8727bebec75ed662ull},
    {"apex6", false, 523, 0, 0xd19d0daff007eac2ull},
    {"vda", true, 319, 7, 0x723394c318aa47ffull},
    {"vda", false, 329, 0, 0xe9564e24e563f648ull},
    {"f51m", true, 70, 12, 0x804dd2a44fdbf047ull},
    {"f51m", false, 141, 0, 0xadecec664f6c4b90ull},
    {"misex3", true, 361, 4, 0xbae70c97bfa6a89full},
    {"misex3", false, 387, 0, 0x336057250c98d641ull},
    {"seq", true, 1791, 37, 0x4634b971ffa297baull},
    {"seq", false, 1867, 0, 0xa6235bb93fb3d521ull},
    {"bigkey", true, 1040, 84, 0x2eb1a0a5d0ec71bdull},
    {"bigkey", false, 1571, 0, 0x555623a3c619d690ull},
};

TEST(Strategy, PaperPresetIsByteIdenticalToPreRefactorEngine) {
    for (const Golden& g : kGolden) {
        const Network input = benchgen::benchmark_by_name(g.name, /*quick=*/true);
        const DecompFlowResult r = run_preset(input, "paper", g.use_majority);
        const net::NetworkStats s = r.network.stats();
        EXPECT_EQ(s.total(), g.total_gates) << g.name << " maj=" << g.use_majority;
        EXPECT_EQ(s.maj_nodes, g.maj_gates) << g.name << " maj=" << g.use_majority;
        EXPECT_EQ(fnv64(net::write_blif(r.network)), g.blif_fnv)
            << g.name << " maj=" << g.use_majority
            << ": BLIF drifted from the pre-refactor engine";
    }
}

TEST(Strategy, EveryPresetPassesTheEquivalenceOracleOnMcnc) {
    for (const benchgen::BenchmarkCase& bc : benchgen::table_suite(/*quick=*/true)) {
        if (!bc.is_mcnc) continue;
        for (const PresetInfo& p : preset_catalog()) {
            const DecompFlowResult r = run_preset(bc.network, p.name);
            EXPECT_TRUE(net::check_equivalent(bc.network, r.network).equivalent)
                << bc.name << " preset " << p.name;
        }
    }
}

TEST(Strategy, PresetsAreDeterministicAcrossJobCounts) {
    // Determinism is a suite property, not a paper-ladder one: the new
    // presets must be byte-identical at any run_suite job count too.
    const std::vector<std::string> names = {"dalu", "alu2", "f51m", "C6288"};
    std::vector<Network> inputs;
    for (const std::string& name : names) {
        inputs.push_back(benchgen::benchmark_by_name(name, /*quick=*/true));
    }
    for (const char* preset : {"exact-aggressive", "best-cost"}) {
        flows::FlowOptions options;
        options.preset = preset;
        options.jobs = 1;
        const auto serial = flows::run_suite(inputs, options, "bdsmaj");
        options.jobs = 8;
        const auto parallel = flows::run_suite(inputs, options, "bdsmaj");
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            EXPECT_EQ(net::write_blif(serial[i][0].optimized),
                      net::write_blif(parallel[i][0].optimized))
                << preset << " " << names[i];
        }
    }
}

TEST(Strategy, ExactAggressiveStrictlyReducesMappedGates) {
    // The acceptance bar: summed over the MCNC suite, the exact-aggressive
    // preset must map to strictly fewer gates than the paper ladder.
    long paper_gates = 0;
    long exact_gates = 0;
    EngineStats exact_stats;
    for (const benchgen::BenchmarkCase& bc : benchgen::table_suite(/*quick=*/true)) {
        if (!bc.is_mcnc) continue;
        const DecompFlowResult paper = run_preset(bc.network, "paper");
        const DecompFlowResult exact = run_preset(bc.network, "exact-aggressive");
        paper_gates +=
            mapping::map_network(paper.network, flows::default_library()).gate_count;
        exact_gates +=
            mapping::map_network(exact.network, flows::default_library()).gate_count;
        exact_stats += exact.engine_stats;
    }
    EXPECT_LT(exact_gates, paper_gates);
    EXPECT_GT(exact_stats.exact_steps, 0)
        << "exact-table activity must be reported in EngineStats";
}

TEST(Strategy, NpnCacheHitPathEqualsEnumerationPath) {
    // Two identical runs must emit byte-identical networks: the exact
    // tier's answer depends only on the cone's NPN class. The cone cache
    // must be off here: with it on, the second run would replay cached
    // tapes and never reach the exact table at all.
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    const auto run_uncached = [&input](const std::string& preset) {
        DecompFlowParams params;
        params.engine.preset = preset;
        params.cone_cache = false;
        return decompose_network(input, params);
    };
    const DecompFlowResult first = run_uncached("exact-aggressive");
    const DecompFlowResult second = run_uncached("exact-aggressive");
    EXPECT_EQ(net::write_blif(first.network), net::write_blif(second.network));
    EXPECT_EQ(first.engine_stats.exact_steps, second.engine_stats.exact_steps);
}

TEST(Strategy, PerStrategyStepsSumToTotalSteps) {
    for (const PresetInfo& p : preset_catalog()) {
        const Network input = benchgen::benchmark_by_name("alu2", /*quick=*/true);
        const DecompFlowResult r = run_preset(input, p.name);
        const EngineStats& e = r.engine_stats;
        int summed = 0;
        for (const StrategyKind kind :
             {StrategyKind::kSymmetric, StrategyKind::kExactSmallCone,
              StrategyKind::kMajority, StrategyKind::kSimpleDominator,
              StrategyKind::kGeneralizedXor, StrategyKind::kShannonMux}) {
            const int steps = e.steps_for(kind);
            ASSERT_GE(steps, 0) << p.name;
            summed += steps;
        }
        EXPECT_EQ(summed, e.total_steps()) << p.name;
        EXPECT_GT(e.total_steps(), 0) << p.name;
    }
}

TEST(Strategy, PresetPlumbsThroughTheFlowLayer) {
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    flows::FlowOptions options;
    options.preset = "exact-aggressive";
    const flows::SynthesisResult flow = flows::flow_bdsmaj(input, options);
    EXPECT_EQ(flow.flow_name, "BDS-MAJ(exact-aggressive)");
    EXPECT_GT(flow.engine_stats.exact_steps, 0);
    const DecompFlowResult direct = run_preset(input, "exact-aggressive");
    EXPECT_EQ(net::write_blif(flow.optimized), net::write_blif(direct.network));
    // Default options keep the historical name and the paper ladder.
    const flows::SynthesisResult paper = flows::flow_bdsmaj(input);
    EXPECT_EQ(paper.flow_name, "BDS-MAJ");
    EXPECT_EQ(paper.engine_stats.exact_steps, 0);
}

TEST(Strategy, ExactMaxSupportAboveFourResolvesToFour) {
    // The exact tier serves cones of at most kMaxExactSupport (4)
    // variables, and a wider request resolves to 4 before anything runs:
    // the same bytes, and the same cone-cache entries.
    EXPECT_EQ(EngineParams{}.exact_max_support, 4);
    DecompFlowParams six;
    six.engine.preset = "exact-aggressive";
    six.engine.exact_max_support = 6;
    EXPECT_EQ(resolve_flow_params(six).engine.exact_max_support, 4);
    DecompFlowParams three = six;
    three.engine.exact_max_support = 3;
    EXPECT_EQ(resolve_flow_params(three).engine.exact_max_support, 3);

    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    ConeCache::instance().clear();
    DecompFlowParams four = six;
    four.engine.exact_max_support = 4;
    const DecompFlowResult at4 = decompose_network(input, four);
    const DecompFlowResult at6 = decompose_network(input, six);
    EXPECT_GT(at4.engine_stats.exact_steps, 0);
    EXPECT_EQ(net::write_blif(at6.network), net::write_blif(at4.network));
    // Resolution precedes the cone-cache key: the second run finds every
    // cone the first one stored.
    EXPECT_EQ(at6.engine_stats.cone_cache_misses, 0);
    EXPECT_GT(at6.engine_stats.cone_cache_hits, 0);

    flows::FlowOptions options;
    options.preset = "exact-aggressive";
    options.exact_max_support = 6;
    EXPECT_EQ(net::write_blif(flows::flow_bdsmaj(input, options).optimized),
              net::write_blif(at4.network));
}

TEST(Strategy, UseMajorityFalseStripsTheMajorityStage) {
    // use_majority=false on the paper preset is the BDS-PGA ladder; its
    // BLIF is pinned by PaperPresetIsByteIdenticalToPreRefactorEngine.
    bdd::Manager mgr(2);
    net::Network network;
    net::HashedNetworkBuilder builder(network);
    EngineParams params;
    params.use_majority = false;
    const BddDecomposer decomposer(mgr, builder, {}, params);
    EXPECT_EQ(decomposer.pipeline().order,
              (std::vector<StrategyKind>{StrategyKind::kSimpleDominator,
                                         StrategyKind::kGeneralizedXor,
                                         StrategyKind::kShannonMux}));

    const Network input = benchgen::benchmark_by_name("alu2", /*quick=*/true);
    const DecompFlowResult stripped = run_preset(input, "paper", false);
    EXPECT_GT(stripped.engine_stats.total_steps(), 0);
    EXPECT_EQ(stripped.engine_stats.maj_steps, 0);
    EXPECT_EQ(stripped.engine_stats.maj_attempts, 0);
}

}  // namespace
}  // namespace bdsmaj::decomp
