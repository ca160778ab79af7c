#include "network/cleanup.hpp"

#include <gtest/gtest.h>

#include <random>

#include "network/cec.hpp"

namespace bdsmaj::net {
namespace {

using tt::TruthTable;

TEST(Cleanup, ConstantPropagationThroughGates) {
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId one = net.add_constant(true);
    const NodeId zero = net.add_constant(false);
    net.add_output("and1", net.add_and(a, one));    // = a
    net.add_output("and0", net.add_and(a, zero));   // = 0
    net.add_output("or1", net.add_or(a, one));      // = 1
    net.add_output("xor1", net.add_xor(a, one));    // = !a
    net.add_output("maj0", net.add_maj(a, a, zero));  // = a
    const Network clean = cleanup(net);
    EXPECT_TRUE(bdd_equivalent(net, clean).equivalent);
    EXPECT_EQ(clean.stats().total(), 0) << "everything folds to wires/constants";
}

TEST(Cleanup, DoubleInvertersCancel) {
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId g = net.add_and(net.add_not(net.add_not(a)), b);
    net.add_output("y", g);
    const Network clean = cleanup(net);
    EXPECT_TRUE(bdd_equivalent(net, clean).equivalent);
    EXPECT_EQ(clean.stats().not_nodes, 0);
    EXPECT_EQ(clean.stats().and_nodes, 1);
}

TEST(Cleanup, StructuralHashingMergesDuplicates) {
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId g1 = net.add_and(a, b);
    const NodeId g2 = net.add_and(b, a);  // commuted duplicate
    net.add_output("y", net.add_xor(g1, g2));  // == 0
    const Network clean = cleanup(net);
    EXPECT_TRUE(bdd_equivalent(net, clean).equivalent);
    EXPECT_EQ(clean.stats().total(), 0) << "XOR of duplicates folds to constant";
}

TEST(Cleanup, DanglingLogicIsSwept) {
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    (void)net.add_xor(net.add_and(a, b), b);  // unused cone
    net.add_output("y", net.add_or(a, b));
    const Network clean = cleanup(net);
    EXPECT_EQ(clean.stats().total(), 1);
    EXPECT_TRUE(bdd_equivalent(net, clean).equivalent);
}

TEST(Cleanup, MajoritySimplifications) {
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    net.add_output("dup", net.add_maj(a, a, b));          // = a
    net.add_output("opp", net.add_maj(a, net.add_not(a), b));  // = b
    const Network clean = cleanup(net);
    EXPECT_TRUE(bdd_equivalent(net, clean).equivalent);
    EXPECT_EQ(clean.stats().total(), 0);
}

TEST(Cleanup, MajorityComplementNormalization) {
    // Maj(!a,!b,!c) must share the node of Maj(a,b,c) via self-duality.
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId c = net.add_input("c");
    const NodeId m1 = net.add_maj(a, b, c);
    const NodeId m2 = net.add_maj(net.add_not(a), net.add_not(b), net.add_not(c));
    net.add_output("y1", m1);
    net.add_output("y2", m2);
    net.add_output("x", net.add_xor(m1, m2));  // == 1: folds to a constant
    const Network clean = cleanup(net);
    EXPECT_TRUE(bdd_equivalent(net, clean).equivalent);
    EXPECT_EQ(clean.stats().maj_nodes, 1) << "one MAJ shared through duality";
    EXPECT_EQ(clean.stats().xor_nodes, 0) << "XOR of dual MAJs is constant";
}

TEST(Cleanup, MuxSimplifications) {
    Network net;
    const NodeId s = net.add_input("s");
    const NodeId t = net.add_input("t");
    net.add_output("same", net.add_mux(s, t, t));             // = t
    net.add_output("ident", net.add_mux(s, net.add_constant(true),
                                        net.add_constant(false)));  // = s
    net.add_output("inv_sel", net.add_mux(net.add_not(s), t,
                                          net.add_constant(false)));  // = !s & t
    const Network clean = cleanup(net);
    EXPECT_TRUE(bdd_equivalent(net, clean).equivalent);
    EXPECT_EQ(clean.stats().mux_nodes, 0);
}

TEST(Cleanup, SopConstantFaninsAreFolded) {
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId one = net.add_constant(true);
    Sop cover(3);
    cover.add_pattern("11-");  // a & const1
    cover.add_pattern("--1");  // b
    net.add_output("y", net.add_sop({a, one, b}, cover, "y"));
    const Network clean = cleanup(net);
    EXPECT_TRUE(bdd_equivalent(net, clean).equivalent);
    // Folds to a | b over 2 fanins.
    for (const NodeId id : clean.topo_order()) {
        if (clean.node(id).kind == GateKind::kSop) {
            EXPECT_EQ(clean.node(id).fanins.size(), 2u);
        }
    }
}

TEST(Cleanup, RandomNetworksAreInvariantUnderCleanup) {
    std::mt19937_64 rng(801);
    for (int trial = 0; trial < 15; ++trial) {
        Network net;
        std::vector<NodeId> pool;
        for (int i = 0; i < 6; ++i) {
            pool.push_back(net.add_input(std::string("i").append(std::to_string(i))));
        }
        pool.push_back(net.add_constant(false));
        pool.push_back(net.add_constant(true));
        for (int g = 0; g < 60; ++g) {
            const auto pick = [&] { return pool[rng() % pool.size()]; };
            switch (rng() % 8) {
                case 0: pool.push_back(net.add_and(pick(), pick())); break;
                case 1: pool.push_back(net.add_or(pick(), pick())); break;
                case 2: pool.push_back(net.add_xor(pick(), pick())); break;
                case 3: pool.push_back(net.add_xnor(pick(), pick())); break;
                case 4: pool.push_back(net.add_not(pick())); break;
                case 5: pool.push_back(net.add_maj(pick(), pick(), pick())); break;
                case 6: pool.push_back(net.add_mux(pick(), pick(), pick())); break;
                default:
                    pool.push_back(net.add_gate(GateKind::kNand, {pick(), pick()}));
                    break;
            }
        }
        for (int o = 0; o < 5; ++o) {
            net.add_output(std::string("o").append(std::to_string(o)),
                           pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
        }
        const Network clean = cleanup(net);
        ASSERT_TRUE(bdd_equivalent(net, clean).equivalent) << "trial " << trial;
        // MUX nodes expand to at most 3 AND/OR nodes; everything else may
        // only shrink.
        EXPECT_LE(clean.stats().total(),
                  net.stats().total() + 2 * net.stats().mux_nodes);
        EXPECT_EQ(clean.stats().mux_nodes, 0);
        // Idempotence: cleaning twice changes nothing further.
        const Network twice = cleanup(clean);
        EXPECT_EQ(twice.stats().total(), clean.stats().total());
    }
}

}  // namespace
}  // namespace bdsmaj::net
