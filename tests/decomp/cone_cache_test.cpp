// The cone memoization contract (decomp/cone_cache.hpp): caching NEVER
// changes a result. Cache-on runs are byte-identical to cache-off runs at
// any service concurrency, warm runs are byte-identical to cold runs, eviction under
// a tiny budget degrades performance only, and a hash collision between
// different cones can never alias their tapes (equality always compares
// the full canonical form). Plus the canonical-folding guarantee:
// cones that provably drive the BDD manager through the identical call
// sequence (NAND vs NOT-of-AND, OR vs De Morgan AND, swapped commutative
// operands) share one cache entry.

#include "decomp/cone_cache.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "benchgen/arith.hpp"
#include "benchgen/suite.hpp"
#include "decomp/flow.hpp"
#include "flows/flows.hpp"
#include "flows/service.hpp"
#include "network/blif.hpp"
#include "network/cec.hpp"
#include "network/gate_tape.hpp"
#include "network/simulate.hpp"

namespace bdsmaj::decomp {
namespace {

using net::Network;

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

struct FlowRun {
    Fingerprint fp;
    EngineStats stats;
};

FlowRun run_flow(const Network& input, bool cone_cache,
                 const std::string& preset = "paper") {
    DecompFlowParams params;
    params.engine.preset = preset;
    params.cone_cache = cone_cache;
    const DecompFlowResult r = decompose_network(input, params);
    const net::NetworkStats s = r.network.stats();
    return FlowRun{Fingerprint{net::write_blif(r.network), s.total(), s.maj_nodes,
                               simulation_signature(r.network)},
                   r.engine_stats};
}

/// The BDS-MAJ flow over `inputs` as one-circuit SynthesisService jobs,
/// at most `max_concurrent_jobs` running at once on a private 4-thread
/// pool (real concurrency even on a 1-core machine); one run per circuit
/// in input order.
std::vector<FlowRun> service_runs(const std::vector<Network>& inputs, bool cone_cache,
                                  int max_concurrent_jobs) {
    runtime::ThreadPool pool(4);
    flows::ServiceParams sp;
    sp.pool = &pool;
    sp.max_concurrent_jobs = max_concurrent_jobs;
    flows::SynthesisService service(sp);
    flows::SynthesisJobParams jp;
    jp.flow = "bdsmaj";
    jp.cone_cache = cone_cache;
    std::vector<flows::SynthesisService::Submission> subs;
    for (const Network& input : inputs) subs.push_back(service.submit(input, jp));
    std::vector<FlowRun> out;
    for (flows::SynthesisService::Submission& sub : subs) {
        const flows::FlowResult r = sub.result.get();
        EXPECT_EQ(r.status, flows::JobStatus::kCompleted);
        const flows::SynthesisResult& res = r.results.at(0).at(0);
        const Network& net = res.optimized;
        out.push_back(FlowRun{Fingerprint{net::write_blif(net), res.optimized_stats.total(),
                                          res.optimized_stats.maj_nodes,
                                          simulation_signature(net)},
                              res.engine_stats});
    }
    return out;
}

TEST(ConeCache, CacheOnEqualsCacheOffAcrossMcncSuite) {
    // The headline guarantee over the whole MCNC quick suite: with the
    // cache cold, warm, or disabled the emitted network is byte-identical.
    ConeCache::instance().clear();
    for (const benchgen::BenchmarkCase& bc : benchgen::table_suite(/*quick=*/true)) {
        if (!bc.is_mcnc) continue;
        const FlowRun off = run_flow(bc.network, /*cone_cache=*/false);
        const FlowRun cold = run_flow(bc.network, /*cone_cache=*/true);
        const FlowRun warm = run_flow(bc.network, /*cone_cache=*/true);
        ASSERT_EQ(off.fp.blif, cold.fp.blif) << bc.name << ": cold drifted";
        ASSERT_EQ(off.fp.blif, warm.fp.blif) << bc.name << ": warm drifted";
        EXPECT_EQ(off.fp, cold.fp) << bc.name;
        EXPECT_EQ(off.fp, warm.fp) << bc.name;
        // Telemetry sanity: the cold run misses at least once, the warm
        // run's supernodes are all hits.
        EXPECT_GT(cold.stats.cone_cache_misses, 0) << bc.name;
        EXPECT_EQ(warm.stats.cone_cache_misses, 0) << bc.name;
        EXPECT_GT(warm.stats.cone_cache_hits, 0) << bc.name;
        // A hit replays the cold run's engine stats verbatim.
        EXPECT_EQ(cold.stats.total_steps(), warm.stats.total_steps()) << bc.name;
        EXPECT_EQ(cold.stats.sift_swaps, warm.stats.sift_swaps) << bc.name;
    }
}

TEST(ConeCache, ByteIdenticalAtAnyJobCountOnAndOff) {
    // Service concurrency x cache matrix on a suite led by the most
    // self-similar circuits: every cell must produce the bytes of a
    // serial cache-off run, and at max_concurrent_jobs=4 the circuits hit
    // the shared cache concurrently.
    const std::vector<std::string> names = {"C6288", "dalu", "alu2", "f51m"};
    std::vector<Network> inputs;
    std::vector<FlowRun> baseline;
    for (const std::string& name : names) {
        inputs.push_back(benchgen::benchmark_by_name(name, /*quick=*/true));
        baseline.push_back(run_flow(inputs.back(), /*cone_cache=*/false));
    }
    for (const bool cached : {false, true}) {
        for (const int concurrent : {1, 4}) {
            ConeCache::instance().clear();
            const std::vector<FlowRun> r = service_runs(inputs, cached, concurrent);
            for (std::size_t i = 0; i < inputs.size(); ++i) {
                ASSERT_EQ(baseline[i].fp.blif, r[i].fp.blif)
                    << names[i] << " cache=" << cached << " concurrent=" << concurrent;
                EXPECT_EQ(baseline[i].fp, r[i].fp)
                    << names[i] << " cache=" << cached << " concurrent=" << concurrent;
            }
        }
    }
    // And once more WITHOUT clearing: fully warm at max_concurrent_jobs=4.
    const std::vector<FlowRun> warm = service_runs(inputs, /*cone_cache=*/true, 4);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        ASSERT_EQ(baseline[i].fp.blif, warm[i].fp.blif) << names[i] << " warm";
        EXPECT_EQ(warm[i].stats.cone_cache_misses, 0) << names[i];
    }
}

TEST(ConeCache, IntraCircuitSelfSimilarityHitsOnC6288) {
    // C6288 (quick: arraymult8) is an array multiplier — hundreds of
    // full-adder cones with identical canonical forms. Even a cold run
    // must serve at least 60% of its supernodes from the cache.
    ConeCache::instance().clear();
    const Network input = benchgen::benchmark_by_name("C6288", /*quick=*/true);
    const FlowRun cold = run_flow(input, /*cone_cache=*/true);
    const long long hits = cold.stats.cone_cache_hits;
    const long long seen = hits + cold.stats.cone_cache_misses;
    EXPECT_GE(10 * hits, 6 * seen)
        << "cold hit rate " << hits << "/" << seen
        << ": canonicalization stopped unifying the multiplier's repeated cones";
}

TEST(ConeCache, EvictionUnderTinyBudgetNeverChangesResults) {
    const Network input = benchgen::benchmark_by_name("dalu", /*quick=*/true);
    ConeCache& cache = ConeCache::instance();
    cache.clear();
    const Fingerprint baseline = run_flow(input, /*cone_cache=*/false).fp;

    // 2 KiB for the whole cache: below dalu's cold footprint (4 tapes,
    // about 3 KiB), so it must evict, yet room for about two tapes, so
    // hits and evictions interleave.
    constexpr std::size_t kBudget = 2 << 10;
    const std::size_t old_budget = cache.budget_bytes();
    cache.set_budget_bytes(kBudget);
    cache.clear();
    const FlowRun squeezed = run_flow(input, /*cone_cache=*/true);
    const ConeCacheStats cs = cache.stats();
    cache.set_budget_bytes(old_budget);
    cache.clear();

    ASSERT_EQ(baseline.blif, squeezed.fp.blif);
    EXPECT_GT(squeezed.stats.cone_cache_evictions, 0)
        << "a 2 KiB budget must evict on this circuit";
    EXPECT_LE(cs.bytes, static_cast<long long>(kBudget))
        << "footprint must respect the budget";
}

TEST(ConeCache, WarmCacheAcrossServiceJobsIsDeterministicAndCounted) {
    // Two identical jobs through the SynthesisService: the second rides
    // the cache warmed by the first (process-wide, across jobs) and must
    // return byte-identical networks.
    ConeCache::instance().clear();
    const Network input = benchgen::benchmark_by_name("C6288", /*quick=*/true);
    flows::SynthesisService service;
    flows::SynthesisJobParams jp;
    jp.flow = "bdsmaj";
    jp.verify = false;
    auto first = service.submit(input, jp);
    const flows::FlowResult r1 = first.result.get();
    auto second = service.submit(input, jp);
    const flows::FlowResult r2 = second.result.get();

    ASSERT_EQ(r1.status, flows::JobStatus::kCompleted);
    ASSERT_EQ(r2.status, flows::JobStatus::kCompleted);
    const flows::SynthesisResult& s1 = r1.results.at(0).at(0);
    const flows::SynthesisResult& s2 = r2.results.at(0).at(0);
    EXPECT_EQ(net::write_blif(s1.optimized), net::write_blif(s2.optimized));
    EXPECT_EQ(s1.mapped.gate_count, s2.mapped.gate_count);
    EXPECT_GT(s1.engine_stats.cone_cache_misses, 0);
    EXPECT_EQ(s2.engine_stats.cone_cache_misses, 0)
        << "the second job must be served entirely from the warm cache";
    const flows::ServiceStats st = service.stats();
    EXPECT_GT(st.cone_cache_hits, 0);
    EXPECT_GT(st.cone_cache_entries, 0);
    EXPECT_GT(st.cone_cache_bytes, 0);
}

// ---------------------------------------------------------------------------
// Canonical-key unit tests on hand-built supernodes.
// ---------------------------------------------------------------------------

/// Supernode over every internal node of `net` (single output), leaves =
/// primary inputs in order. The networks built below are single-cone by
/// construction.
Supernode whole_network_supernode(const Network& net) {
    Supernode sn;
    sn.leaves.assign(net.inputs().begin(), net.inputs().end());
    std::set<net::NodeId> leaf_set(sn.leaves.begin(), sn.leaves.end());
    for (net::NodeId id = 0; id < static_cast<net::NodeId>(net.node_count()); ++id) {
        if (leaf_set.count(id) == 0) sn.cone.push_back(id);
    }
    sn.root = net.outputs().front().driver;
    return sn;
}

std::string test_config() {
    return cone_cache_config_blob(EngineParams{}, bdd::ManagerParams{}, true);
}

TEST(ConeCache, PolarityFoldingUnifiesEquivalentCallSequences) {
    ConeKeyBuilder keys;
    const std::string config = test_config();

    // NAND(a, b) vs NOT(AND(a, b)): identical manager calls, one key.
    Network nand_net("nand");
    {
        const auto a = nand_net.add_input("a"), b = nand_net.add_input("b");
        nand_net.add_output("o", nand_net.add_gate(net::GateKind::kNand, {a, b}));
    }
    Network not_and_net("not_and");
    {
        const auto a = not_and_net.add_input("a"), b = not_and_net.add_input("b");
        not_and_net.add_output("o", not_and_net.add_not(not_and_net.add_and(a, b)));
    }
    const ConeKey k1 = keys.build(nand_net, whole_network_supernode(nand_net), config);
    const ConeKey k2 = keys.build(not_and_net, whole_network_supernode(not_and_net), config);
    EXPECT_EQ(k1.canonical, k2.canonical);
    EXPECT_EQ(k1.hash, k2.hash);

    // OR(a, b) vs NOT(AND(NOT a, NOT b)): the apply_or implementation.
    Network or_net("or");
    {
        const auto a = or_net.add_input("a"), b = or_net.add_input("b");
        or_net.add_output("o", or_net.add_or(a, b));
    }
    Network demorgan("demorgan");
    {
        const auto a = demorgan.add_input("a"), b = demorgan.add_input("b");
        demorgan.add_output(
            "o", demorgan.add_not(demorgan.add_and(demorgan.add_not(a),
                                                   demorgan.add_not(b))));
    }
    const ConeKey k3 = keys.build(or_net, whole_network_supernode(or_net), config);
    const ConeKey k4 = keys.build(demorgan, whole_network_supernode(demorgan), config);
    EXPECT_EQ(k3.canonical, k4.canonical);

    // Commutative operand order folds away: AND(a, b) == AND(b, a).
    Network ab("ab"), ba("ba");
    {
        const auto a = ab.add_input("a"), b = ab.add_input("b");
        ab.add_output("o", ab.add_and(a, b));
    }
    {
        const auto a = ba.add_input("a"), b = ba.add_input("b");
        ba.add_output("o", ba.add_and(b, a));
    }
    const ConeKey k5 = keys.build(ab, whole_network_supernode(ab), config);
    const ConeKey k6 = keys.build(ba, whole_network_supernode(ba), config);
    EXPECT_EQ(k5.canonical, k6.canonical);

    // But AND and NAND stay distinct (output polarity is in the key).
    EXPECT_NE(k1.canonical, k5.canonical);
    // And a different config blob keys a different entry.
    EngineParams other;
    other.preset = "exact-aggressive";
    const ConeKey k7 = keys.build(ab, whole_network_supernode(ab),
                                  cone_cache_config_blob(other, bdd::ManagerParams{}, true));
    EXPECT_NE(k5.canonical, k7.canonical);
}

TEST(ConeCache, SimHashCollisionCannotAliasEntries) {
    // Two different canonical forms under the SAME hash: they land in one
    // bucket but must stay distinct entries — equality compares the
    // canonical form, not the hash.
    ConeKeyBuilder keys;
    Network and_net("and"), xor_net("xor");
    {
        const auto a = and_net.add_input("a"), b = and_net.add_input("b");
        and_net.add_output("o", and_net.add_and(a, b));
    }
    {
        const auto a = xor_net.add_input("a"), b = xor_net.add_input("b");
        xor_net.add_output("o", xor_net.add_xor(a, b));
    }
    const std::string config = test_config();
    ConeKey k1 = keys.build(and_net, whole_network_supernode(and_net), config);
    ConeKey k2 = keys.build(xor_net, whole_network_supernode(xor_net), config);
    ASSERT_NE(k1.canonical, k2.canonical);
    k1.hash = 42;
    k2.hash = 42;

    ConeCache& cache = ConeCache::instance();
    cache.clear();
    cache.insert(k1, std::make_shared<net::GateTape>(2), EngineStats{});
    EXPECT_NE(cache.lookup(k1), nullptr);
    EXPECT_EQ(cache.lookup(k2), nullptr)
        << "hash collision aliased two different cones";
    // And the colliding key gets its own entry, leaving the first intact.
    cache.insert(k2, std::make_shared<net::GateTape>(2), EngineStats{});
    EXPECT_EQ(cache.stats().entries, 2);
    EXPECT_NE(cache.lookup(k1), cache.lookup(k2));
    cache.clear();
}

TEST(ConeCache, BuildBddMatchesDirectConeEvaluation) {
    // build_bdd is the only builder of a supernode's local BDD, so it is
    // checked against a direct evaluation of the cone with net::node_bdd
    // in the same manager: canonicity makes equal functions equal edges.
    std::vector<Network> inputs;
    for (const std::string& name : benchgen::benchmark_names()) {
        inputs.push_back(benchgen::benchmark_by_name(name, /*quick=*/true));
    }
    inputs.push_back(benchgen::make_ripple_adder(8));
    inputs.push_back(benchgen::make_cla_adder(8));
    inputs.push_back(benchgen::make_four_operand_adder(8));
    inputs.push_back(benchgen::make_array_multiplier(8));
    inputs.push_back(benchgen::make_wallace_multiplier(8));
    inputs.push_back(benchgen::make_mac(8));
    inputs.push_back(benchgen::make_restoring_divider(8));
    inputs.push_back(benchgen::make_reciprocal(8));
    inputs.push_back(benchgen::make_sqrt(8));
    // The generators emit no BUF, NAND, NOR, XNOR or SOP gates; this
    // network adds them, and constants under XOR and OR.
    {
        Network net("every_kind");
        const auto a = net.add_input("a"), b = net.add_input("b");
        const auto c = net.add_input("c"), d = net.add_input("d");
        const auto nand = net.add_gate(net::GateKind::kNand, {a, b});
        const auto nor = net.add_gate(net::GateKind::kNor, {c, nand});
        const auto buf = net.add_gate(net::GateKind::kBuf, {net.add_xnor(nor, d)});
        net::Sop cover = net::Sop::from_pattern("1-0");
        cover.add_cube(net::Sop::from_pattern("01-").cubes().front());
        const auto sop = net.add_sop({a, buf, c}, cover);
        const auto x = net.add_xor(sop, net.add_constant(true));
        const auto o = net.add_or(x, net.add_constant(false));
        const auto mux = net.add_mux(b, o, net.add_not(a));
        net.add_output("o", net.add_maj(mux, c, d));
        inputs.push_back(std::move(net));
    }

    ConeKeyBuilder cone;
    std::set<net::GateKind> kinds;
    long long supernodes = 0;
    for (const Network& input : inputs) {
        for (const Supernode& sn : partition_network(input)) {
            bdd::Manager mgr(static_cast<int>(sn.leaves.size()));
            (void)cone.build(input, sn, "");
            const bdd::Bdd built = cone.build_bdd(mgr);
            std::unordered_map<net::NodeId, bdd::Bdd> value;
            for (std::size_t i = 0; i < sn.leaves.size(); ++i) {
                value[sn.leaves[i]] = mgr.var_bdd(static_cast<int>(i));
            }
            for (const net::NodeId id : sn.cone) {
                const net::Node& n = input.node(id);
                kinds.insert(n.kind);
                value[id] = net::node_bdd(mgr, n, [&](std::size_t k) -> const bdd::Bdd& {
                    return value.at(n.fanins[k]);
                });
            }
            ASSERT_EQ(built.edge(), value.at(sn.root).edge())
                << input.model_name() << ": supernode rooted at node " << sn.root;
            ++supernodes;
        }
    }
    EXPECT_GT(supernodes, 1000);
    EXPECT_EQ(kinds.size(), 13u) << "every gate kind but kInput is covered";
}

TEST(ConeCache, MalformedConeThrowsAndLeavesTheBuilderClean) {
    // Inputs a..d; g1 = AND(a, b), g2 = AND(g1, c), g3 = OR(c, d),
    // g4 = AND(g3, g1).
    Network net("malformed");
    const auto a = net.add_input("a"), b = net.add_input("b");
    const auto c = net.add_input("c"), d = net.add_input("d");
    const auto g1 = net.add_and(a, b);
    const auto g2 = net.add_and(g1, c);
    const auto g3 = net.add_or(c, d);
    const auto g4 = net.add_and(g3, g1);
    net.add_output("o2", g2);
    net.add_output("o4", g4);

    // g2 reads c, which is neither a leaf nor earlier in the cone; the
    // walk has stamped a, b and g1 by then.
    Supernode reads_outside{g2, {a, b}, {g1, g2}};
    // g4 reads g1, which only the failed walk above stamped: a stale
    // stamp would alias it to g3 instead of throwing.
    Supernode reads_stale{g4, {c, d}, {g3, g4}};
    Supernode valid{g4, {a, b, c, d}, {g1, g3, g4}};

    const std::string config = test_config();
    ConeKeyBuilder used;
    EXPECT_THROW((void)used.build(net, reads_outside, config), std::logic_error);
    EXPECT_THROW((void)used.build(net, reads_stale, config), std::logic_error);
    const ConeKey after = used.build(net, valid, config);
    ConeKeyBuilder fresh;
    const ConeKey expected = fresh.build(net, valid, config);
    EXPECT_EQ(after.canonical, expected.canonical);
    EXPECT_EQ(after.hash, expected.hash);
}

TEST(ConeCache, StructurallyDistinctCanonicalEqualConesShareOneEntry) {
    // End-to-end folding check: a NAND network and its NOT(AND) rewrite
    // decompose through ONE cache entry — the second flow is all hits.
    ConeCache::instance().clear();
    Network nand_net("nand");
    {
        const auto a = nand_net.add_input("a"), b = nand_net.add_input("b");
        nand_net.add_output("o", nand_net.add_gate(net::GateKind::kNand, {a, b}));
    }
    Network not_and_net("not_and");
    {
        const auto a = not_and_net.add_input("a"), b = not_and_net.add_input("b");
        not_and_net.add_output("o", not_and_net.add_not(not_and_net.add_and(a, b)));
    }
    const FlowRun first = run_flow(nand_net, /*cone_cache=*/true);
    const FlowRun second = run_flow(not_and_net, /*cone_cache=*/true);
    EXPECT_GT(first.stats.cone_cache_misses, 0);
    EXPECT_EQ(second.stats.cone_cache_misses, 0)
        << "the folded cone must hit the NAND network's entry";
    EXPECT_GT(second.stats.cone_cache_hits, 0);
    // Both compute the same function; the replayed tape must too.
    EXPECT_TRUE(net::check_equivalent(nand_net, not_and_net).equivalent);
    ConeCache::instance().clear();
}

TEST(ConeCache, ZeroBudgetDisablesRetentionNotCorrectness) {
    ConeCache& cache = ConeCache::instance();
    const std::size_t old_budget = cache.budget_bytes();
    cache.set_budget_bytes(0);
    cache.clear();
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    const FlowRun r = run_flow(input, /*cone_cache=*/true);
    EXPECT_EQ(cache.stats().entries, 0) << "budget 0 must retain nothing";
    EXPECT_EQ(r.stats.cone_cache_hits, 0);
    cache.set_budget_bytes(old_budget);
    cache.clear();
    const FlowRun baseline = run_flow(input, /*cone_cache=*/false);
    EXPECT_EQ(baseline.fp.blif, r.fp.blif);
    cache.clear();
}

}  // namespace
}  // namespace bdsmaj::decomp
