#include "decomp/engine.hpp"

#include <gtest/gtest.h>

#include <random>

#include "network/builder.hpp"
#include "network/simulate.hpp"
#include "tt/truth_table.hpp"

namespace bdsmaj::decomp {
namespace {

using bdd::Bdd;
using bdd::Manager;
using net::Signal;
using tt::TruthTable;

/// Decompose `f` into a fresh network and return (network, root signal).
struct DecomposedFunction {
    net::Network network;
    EngineStats stats;
};

DecomposedFunction decompose_to_network(Manager& mgr, const Bdd& f, int n,
                                        const EngineParams& params = {}) {
    DecomposedFunction out;
    net::HashedNetworkBuilder builder(out.network);
    std::vector<Signal> leaves;
    for (int i = 0; i < n; ++i) {
        leaves.push_back(
            Signal{out.network.add_input(std::string("x").append(std::to_string(i))), false});
    }
    BddDecomposer decomposer(mgr, builder, leaves, params);
    const Signal root = decomposer.decompose(f);
    out.network.add_output("f", builder.realize(root));
    out.stats = decomposer.stats();
    return out;
}

/// The sign-off: simulate the decomposed network on all minterms against
/// the BDD oracle.
void expect_equivalent(Manager& mgr, const Bdd& f, const net::Network& network, int n) {
    const TruthTable expected = mgr.to_truth_table(f, n);
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m) {
        std::vector<bool> input;
        for (int i = 0; i < n; ++i) input.push_back((m >> i) & 1);
        ASSERT_EQ(simulate(network, input)[0], expected.get_bit(m)) << "minterm " << m;
    }
}

TEST(Engine, ConstantsAndLiterals) {
    Manager mgr(2);
    {
        const auto d = decompose_to_network(mgr, mgr.one(), 2);
        expect_equivalent(mgr, mgr.one(), d.network, 2);
        EXPECT_EQ(d.network.stats().total(), 0);
    }
    {
        const auto d = decompose_to_network(mgr, !mgr.var_bdd(1), 2);
        expect_equivalent(mgr, !mgr.var_bdd(1), d.network, 2);
        EXPECT_EQ(d.network.stats().total(), 0) << "a literal needs no gate";
        EXPECT_EQ(d.stats.literal_leaves, 1);
    }
}

TEST(Engine, MajorityOfLiteralsBecomesOneMajGate) {
    Manager mgr(3);
    const Bdd f = mgr.maj(mgr.var_bdd(0), mgr.var_bdd(1), mgr.var_bdd(2));
    const auto d = decompose_to_network(mgr, f, 3);
    expect_equivalent(mgr, f, d.network, 3);
    EXPECT_EQ(d.stats.maj_steps, 1);
    EXPECT_EQ(d.network.stats().maj_nodes, 1);
    EXPECT_EQ(d.network.stats().total(), 1) << "exactly Maj(a,b,c)";
}

TEST(Engine, BdsPgaBaselineNeverEmitsMaj) {
    std::mt19937_64 rng(1201);
    EngineParams params;
    params.use_majority = false;
    for (int trial = 0; trial < 10; ++trial) {
        Manager mgr(5);
        const Bdd f = mgr.from_truth_table(TruthTable::random(5, rng));
        const auto d = decompose_to_network(mgr, f, 5, params);
        expect_equivalent(mgr, f, d.network, 5);
        EXPECT_EQ(d.stats.maj_steps, 0);
        EXPECT_EQ(d.network.stats().maj_nodes, 0);
    }
}

TEST(Engine, AndDecompositionViaDominator) {
    Manager mgr(4);
    const Bdd f = mgr.var_bdd(0) & (mgr.var_bdd(1) | (mgr.var_bdd(2) & mgr.var_bdd(3)));
    const auto d = decompose_to_network(mgr, f, 4);
    expect_equivalent(mgr, f, d.network, 4);
    EXPECT_GT(d.stats.and_steps + d.stats.or_steps, 0);
    EXPECT_EQ(d.stats.mux_steps, 0) << "AND/OR structure needs no Shannon fallback";
}

TEST(Engine, XorChainDecomposesWithXorSteps) {
    Manager mgr(6);
    Bdd f = mgr.zero();
    for (int v = 0; v < 6; ++v) f = f ^ mgr.var_bdd(v);
    const auto d = decompose_to_network(mgr, f, 6);
    expect_equivalent(mgr, f, d.network, 6);
    EXPECT_GT(d.stats.xor_steps, 0);
    const auto s = d.network.stats();
    EXPECT_EQ(s.and_nodes + s.or_nodes + s.maj_nodes, 0)
        << "parity must stay within the XOR alphabet";
}

class EngineRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineRandomTest, RandomFunctionsDecomposeCorrectlyBothModes) {
    const int n = GetParam();
    std::mt19937_64 rng(1301 + n);
    for (const bool use_maj : {true, false}) {
        EngineParams params;
        params.use_majority = use_maj;
        for (int trial = 0; trial < 10; ++trial) {
            Manager mgr(n);
            const Bdd f = mgr.from_truth_table(TruthTable::random(n, rng));
            const auto d = decompose_to_network(mgr, f, n, params);
            expect_equivalent(mgr, f, d.network, n);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EngineRandomTest, ::testing::Values(2, 3, 4, 5, 6, 7, 8));

TEST(Engine, SharedSubfunctionsShareGatesAcrossCalls) {
    // Two functions sharing the (a&b) cone, decomposed through one
    // decomposer: memoization + hash-consing must build the cone once.
    Manager mgr(4);
    net::Network network;
    net::HashedNetworkBuilder builder(network);
    std::vector<Signal> leaves;
    for (int i = 0; i < 4; ++i) {
        leaves.push_back(
            Signal{network.add_input(std::string("x").append(std::to_string(i))), false});
    }
    BddDecomposer decomposer(mgr, builder, leaves, EngineParams{});
    const Bdd ab = mgr.var_bdd(0) & mgr.var_bdd(1);
    const Bdd f1 = ab ^ mgr.var_bdd(2);
    const Bdd f2 = ab | mgr.var_bdd(3);
    network.add_output("f1", builder.realize(decomposer.decompose(f1)));
    network.add_output("f2", builder.realize(decomposer.decompose(f2)));
    const TruthTable e1 = mgr.to_truth_table(f1, 4);
    const TruthTable e2 = mgr.to_truth_table(f2, 4);
    for (std::uint64_t m = 0; m < 16; ++m) {
        std::vector<bool> input;
        for (int i = 0; i < 4; ++i) input.push_back((m >> i) & 1);
        const auto out = simulate(network, input);
        ASSERT_EQ(out[0], e1.get_bit(m));
        ASSERT_EQ(out[1], e2.get_bit(m));
    }
    int and_gates = 0;
    for (const net::NodeId id : network.topo_order()) {
        if (network.node(id).kind == net::GateKind::kAnd) ++and_gates;
    }
    // (a&b) once, plus one AND realizing f2's OR: no duplicated cone.
    EXPECT_LE(and_gates, 2);
}

TEST(Engine, ComplementedDivisorDominatorsAreFound) {
    // f = !(a&b) & c: the regular edge is (a&b) | !c, whose OR-dominator
    // divisor arrives complemented. The engine must still avoid Shannon.
    Manager mgr(3);
    const Bdd ab = mgr.var_bdd(0) & mgr.var_bdd(1);
    const Bdd f = ab ^ (ab | mgr.var_bdd(2));  // == !(a&b) & c
    const auto d = decompose_to_network(mgr, f, 3);
    expect_equivalent(mgr, f, d.network, 3);
    EXPECT_EQ(d.stats.mux_steps, 0) << "AND/OR structure, no Shannon fallback";
    EXPECT_LE(d.network.stats().total(), 2);
}

TEST(Engine, MemoizationServesRepeatedCalls) {
    Manager mgr(4);
    net::Network network;
    net::HashedNetworkBuilder builder(network);
    std::vector<Signal> leaves;
    for (int i = 0; i < 4; ++i) {
        leaves.push_back(
            Signal{network.add_input(std::string("x").append(std::to_string(i))), false});
    }
    BddDecomposer decomposer(mgr, builder, leaves, EngineParams{});
    const Bdd f = (mgr.var_bdd(0) & mgr.var_bdd(1)) | mgr.var_bdd(2);
    const Signal s1 = decomposer.decompose(f);
    const Signal s2 = decomposer.decompose(f);
    EXPECT_EQ(s1, s2) << "second call must hit the memo";
    const Signal s3 = decomposer.decompose(!f);
    EXPECT_EQ(s3, !s1) << "complement handled by polarity, not new gates";
}

TEST(Engine, DatapathShapeProducesMajNodes) {
    // A 3-bit ripple-carry: the carry functions are nested majorities; the
    // BDS-MAJ engine must find MAJ decompositions on them.
    Manager mgr(7);
    const Bdd a0 = mgr.var_bdd(0), b0 = mgr.var_bdd(1);
    const Bdd a1 = mgr.var_bdd(2), b1 = mgr.var_bdd(3);
    const Bdd a2 = mgr.var_bdd(4), b2 = mgr.var_bdd(5);
    const Bdd cin = mgr.var_bdd(6);
    const Bdd c1 = mgr.maj(a0, b0, cin);
    const Bdd c2 = mgr.maj(a1, b1, c1);
    const Bdd c3 = mgr.maj(a2, b2, c2);
    const auto d = decompose_to_network(mgr, c3, 7);
    expect_equivalent(mgr, c3, d.network, 7);
    EXPECT_GE(d.stats.maj_steps, 2) << "nested majority carries";
}

}  // namespace
}  // namespace bdsmaj::decomp
