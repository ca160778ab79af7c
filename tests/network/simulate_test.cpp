#include "network/simulate.hpp"

#include <gtest/gtest.h>

#include <random>

#include "network/cec.hpp"

namespace bdsmaj::net {
namespace {

Network full_adder() {
    Network net("fa");
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId cin = net.add_input("cin");
    net.add_output("sum", net.add_xor(net.add_xor(a, b), cin));
    net.add_output("cout", net.add_maj(a, b, cin));
    return net;
}

TEST(Simulate, FullAdderTruthTable) {
    const Network net = full_adder();
    for (int m = 0; m < 8; ++m) {
        const bool a = m & 1, b = (m >> 1) & 1, c = (m >> 2) & 1;
        const auto out = simulate(net, {a, b, c});
        const int expected = a + b + c;
        EXPECT_EQ(out[0], (expected & 1) != 0) << "sum at " << m;
        EXPECT_EQ(out[1], expected >= 2) << "carry at " << m;
    }
}

TEST(Simulate, AllGateKindsMatchSemantics) {
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId c = net.add_input("c");
    net.add_output("and", net.add_gate(GateKind::kAnd, {a, b}));
    net.add_output("or", net.add_gate(GateKind::kOr, {a, b}));
    net.add_output("nand", net.add_gate(GateKind::kNand, {a, b}));
    net.add_output("nor", net.add_gate(GateKind::kNor, {a, b}));
    net.add_output("xor", net.add_gate(GateKind::kXor, {a, b}));
    net.add_output("xnor", net.add_gate(GateKind::kXnor, {a, b}));
    net.add_output("not", net.add_gate(GateKind::kNot, {a}));
    net.add_output("buf", net.add_gate(GateKind::kBuf, {a}));
    net.add_output("maj", net.add_gate(GateKind::kMaj, {a, b, c}));
    net.add_output("mux", net.add_gate(GateKind::kMux, {a, b, c}));
    net.add_output("c0", net.add_constant(false));
    net.add_output("c1", net.add_constant(true));
    for (int m = 0; m < 8; ++m) {
        const bool va = m & 1, vb = (m >> 1) & 1, vc = (m >> 2) & 1;
        const auto out = simulate(net, {va, vb, vc});
        std::size_t i = 0;
        EXPECT_EQ(out[i++], va && vb);
        EXPECT_EQ(out[i++], va || vb);
        EXPECT_EQ(out[i++], !(va && vb));
        EXPECT_EQ(out[i++], !(va || vb));
        EXPECT_EQ(out[i++], va != vb);
        EXPECT_EQ(out[i++], va == vb);
        EXPECT_EQ(out[i++], !va);
        EXPECT_EQ(out[i++], va);
        EXPECT_EQ(out[i++], (va + vb + vc) >= 2);
        EXPECT_EQ(out[i++], va ? vb : vc);
        EXPECT_EQ(out[i++], false);
        EXPECT_EQ(out[i++], true);
    }
}

TEST(Simulate, WordsStimulusCountValidated) {
    const Network net = full_adder();
    EXPECT_THROW((void)simulate_words(net, {0, 0}), std::invalid_argument);
}

TEST(Equivalence, IdenticalNetworksAreEquivalent) {
    const Network a = full_adder();
    const Network b = full_adder();
    // Random simulation can only sample agreement: exact stays false.
    const EquivalenceResult sim = random_equivalent(a, b, 16, 1);
    EXPECT_TRUE(sim.equivalent);
    EXPECT_FALSE(sim.exact);
    EXPECT_EQ(sim.engine, EquivEngine::kSim);
    // The BDD engine and the oracle both return proofs.
    const EquivalenceResult bdd = bdd_equivalent(a, b);
    EXPECT_TRUE(bdd.equivalent);
    EXPECT_TRUE(bdd.exact);
    EXPECT_EQ(bdd.engine, EquivEngine::kBdd);
    const EquivalenceResult oracle = check_equivalent(a, b);
    EXPECT_TRUE(oracle.equivalent);
    EXPECT_TRUE(oracle.exact);
}

TEST(Equivalence, DifferentFunctionsAreCaught) {
    Network a;
    {
        const NodeId x = a.add_input("x");
        const NodeId y = a.add_input("y");
        a.add_output("f", a.add_and(x, y));
    }
    Network b;
    {
        const NodeId x = b.add_input("x");
        const NodeId y = b.add_input("y");
        b.add_output("f", b.add_or(x, y));
    }
    for (const EquivalenceResult& r :
         {random_equivalent(a, b, 4, 7), bdd_equivalent(a, b), check_equivalent(a, b)}) {
        EXPECT_FALSE(r.equivalent);
        // A refutation is always exact: it carries a concrete re-verified
        // counterexample naming the failing output.
        EXPECT_TRUE(r.exact);
        ASSERT_EQ(r.counterexample.size(), 2u);
        EXPECT_EQ(r.failing_output, 0);
        EXPECT_NE(simulate(a, r.counterexample)[0], simulate(b, r.counterexample)[0]);
    }
}

TEST(Equivalence, StructurallyDifferentButEqualFunctions) {
    // a^b built as XOR vs as (a&!b)|(!a&b).
    Network a;
    {
        const NodeId x = a.add_input("x");
        const NodeId y = a.add_input("y");
        a.add_output("f", a.add_xor(x, y));
    }
    Network b;
    {
        const NodeId x = b.add_input("x");
        const NodeId y = b.add_input("y");
        const NodeId t1 = b.add_and(x, b.add_not(y));
        const NodeId t2 = b.add_and(b.add_not(x), y);
        b.add_output("f", b.add_or(t1, t2));
    }
    EXPECT_TRUE(bdd_equivalent(a, b).equivalent);
    EXPECT_TRUE(check_equivalent(a, b).equivalent);
}

TEST(Equivalence, ShapeMismatchesAreReported) {
    Network a;
    a.add_output("f", a.add_input("x"));
    Network b;
    {
        const NodeId x = b.add_input("x");
        (void)b.add_input("y");
        b.add_output("f", x);
    }
    const auto r = random_equivalent(a, b, 1, 1);
    EXPECT_FALSE(r.equivalent);
    EXPECT_NE(r.reason.find("input"), std::string::npos);
}

TEST(Equivalence, SopNodesSimulateLikeTheirCover) {
    std::mt19937_64 rng(501);
    for (int trial = 0; trial < 10; ++trial) {
        const int arity = 5;
        const tt::TruthTable f = tt::TruthTable::random(arity, rng);
        Network net;
        std::vector<NodeId> ins;
        for (int i = 0; i < arity; ++i) {
            ins.push_back(net.add_input(std::string("i").append(std::to_string(i))));
        }
        net.add_output("f", net.add_sop(ins, Sop::isop(f), "f"));
        for (std::uint64_t m = 0; m < 32; ++m) {
            std::vector<bool> values;
            for (int i = 0; i < arity; ++i) values.push_back((m >> i) & 1);
            EXPECT_EQ(simulate(net, values)[0], f.get_bit(m)) << "minterm " << m;
        }
    }
}

TEST(Equivalence, NetworkToBddsMatchesSimulation) {
    const Network net = full_adder();
    bdd::Manager mgr;
    const auto outs = network_to_bdds(net, mgr);
    ASSERT_EQ(outs.size(), 2u);
    for (int m = 0; m < 8; ++m) {
        const std::vector<bool> values{(m & 1) != 0, (m & 2) != 0, (m & 4) != 0};
        const auto sim = simulate(net, values);
        EXPECT_EQ(mgr.eval(outs[0], values), sim[0]);
        EXPECT_EQ(mgr.eval(outs[1], values), sim[1]);
    }
}

}  // namespace
}  // namespace bdsmaj::net
