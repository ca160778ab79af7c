#include "network/factor.hpp"

#include <gtest/gtest.h>

#include <random>

#include "network/simulate.hpp"

namespace bdsmaj::net {
namespace {

using tt::TruthTable;

TEST(Factor, SynthesizedSopMatchesCover) {
    std::mt19937_64 rng(701);
    for (int arity : {1, 2, 3, 5, 7}) {
        for (int trial = 0; trial < 10; ++trial) {
            const TruthTable f = TruthTable::random(arity, rng);
            const Sop cover = Sop::isop(f);
            Network net;
            std::vector<NodeId> ins;
            for (int i = 0; i < arity; ++i) {
                ins.push_back(net.add_input(std::string("i").append(std::to_string(i))));
            }
            net.add_output("y", synthesize_sop(net, ins, cover));
            for (std::uint64_t m = 0; m < (std::uint64_t{1} << arity); ++m) {
                std::vector<bool> values;
                for (int i = 0; i < arity; ++i) values.push_back((m >> i) & 1);
                ASSERT_EQ(simulate(net, values)[0], f.get_bit(m))
                    << "arity " << arity << " trial " << trial << " m " << m;
            }
        }
    }
}

TEST(Factor, ConstantsSynthesize) {
    Network net;
    (void)net.add_input("a");
    net.add_output("zero", synthesize_sop(net, {}, Sop(0)));
    net.add_output("one", synthesize_sop(net, {}, Sop::constant(true, 0)));
    const auto out = simulate(net, {false});
    EXPECT_FALSE(out[0]);
    EXPECT_TRUE(out[1]);
}

TEST(Factor, SharedLiteralIsFactoredOut) {
    // ab + ac + ad factors as a(b+c+d): 3 gates beat the flat 4 (3 AND + OR
    // tree); the factored tree must have fewer literal leaves than the flat
    // cover's 6.
    Sop s(4);
    s.add_pattern("11--");
    s.add_pattern("1-1-");
    s.add_pattern("1--1");
    EXPECT_EQ(s.literal_count(), 6);
    EXPECT_EQ(factored_literal_count(s), 4);  // a, b, c, d once each
}

TEST(Factor, ParityFactorsOnlyThroughLiteralSharing) {
    // 3-input parity has 4 full cubes (12 literals). Quick-factor can only
    // co-factor on single literals (Shannon-style), which shares exactly two
    // literals: a(b'c' + bc) + a'(bc' + b'c) = 10 leaves. Kernel-free
    // functions must not compress further.
    TruthTable parity = TruthTable::zeros(3);
    for (int v = 0; v < 3; ++v) parity = parity ^ TruthTable::var(3, v);
    const Sop cover = Sop::isop(parity);
    EXPECT_EQ(cover.literal_count(), 12);
    EXPECT_EQ(factored_literal_count(cover), 10);
}

TEST(Factor, FactorNetworkPreservesFunction) {
    std::mt19937_64 rng(703);
    Network net;
    std::vector<NodeId> ins;
    for (int i = 0; i < 6; ++i) {
        ins.push_back(net.add_input(std::string("i").append(std::to_string(i))));
    }
    for (int g = 0; g < 5; ++g) {
        const TruthTable f = TruthTable::random(4, rng);
        std::vector<NodeId> fanins;
        for (int k = 0; k < 4; ++k) fanins.push_back(ins[rng() % ins.size()]);
        net.add_output(std::string("o").append(std::to_string(g)),
                       net.add_sop(fanins, Sop::isop(f), ""));
    }
    const Network factored = factor_network(net);
    EXPECT_TRUE(bdd_equivalent(net, factored).equivalent);
    EXPECT_EQ(factored.stats().sop_nodes, 0) << "no SOP nodes may remain";
}

TEST(Factor, InvertersAreSharedAcrossCubes) {
    // Factored form: OR(AND(!a, OR(b, !b)), AND(a, !b)) — the literal !b
    // occurs in two branches but only one NOT gate may be created, so the
    // network holds exactly two inverters (!a and the shared !b).
    Sop s(2);
    s.add_pattern("01");
    s.add_pattern("10");
    s.add_pattern("00");
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    net.add_output("y", synthesize_sop(net, {a, b}, s));
    EXPECT_EQ(net.stats().not_nodes, 2);
}

}  // namespace
}  // namespace bdsmaj::net
