#include "mapping/mapper.hpp"

#include <gtest/gtest.h>

#include <random>

#include "mapping/timing.hpp"
#include "network/cec.hpp"
#include "tt/truth_table.hpp"

namespace bdsmaj::mapping {
namespace {

using net::GateKind;
using net::Network;
using net::NodeId;

const CellLibrary& lib() {
    static const CellLibrary l = CellLibrary::cmos22nm();
    return l;
}

bool is_library_netlist(const Network& netlist) {
    for (const NodeId id : netlist.topo_order()) {
        switch (netlist.node(id).kind) {
            case GateKind::kInput:
            case GateKind::kConst0:
            case GateKind::kConst1:
            case GateKind::kNot:
            case GateKind::kNand:
            case GateKind::kNor:
            case GateKind::kXor:
            case GateKind::kXnor:
            case GateKind::kMaj:
                break;
            default:
                return false;
        }
    }
    return true;
}

TEST(Library, SixCellsWithSaneMonotoneCosts) {
    const CellLibrary& l = lib();
    EXPECT_EQ(l.cells().size(), 6u);
    const Cell& inv = l.cell_for(GateKind::kNot);
    const Cell& nand2 = l.cell_for(GateKind::kNand);
    const Cell& xor2 = l.cell_for(GateKind::kXor);
    const Cell& maj3 = l.cell_for(GateKind::kMaj);
    EXPECT_LT(inv.area_um2, nand2.area_um2);
    EXPECT_LT(nand2.area_um2, xor2.area_um2);
    EXPECT_LT(xor2.area_um2, maj3.area_um2);
    EXPECT_LT(inv.intrinsic_ns, maj3.intrinsic_ns);
    EXPECT_FALSE(l.has_cell_for(GateKind::kAnd));
    EXPECT_THROW((void)l.cell_for(GateKind::kAnd), std::out_of_range);
}

TEST(Mapper, MajXorXnorAssignedDirectly) {
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId c = net.add_input("c");
    net.add_output("m", net.add_maj(a, b, c));
    net.add_output("x", net.add_xor(a, b));
    net.add_output("n", net.add_xnor(b, c));
    const MappedResult r = map_network(net, lib());
    EXPECT_TRUE(is_library_netlist(r.netlist));
    EXPECT_TRUE(net::check_equivalent(net, r.netlist).equivalent);
    const auto s = r.netlist.stats();
    EXPECT_EQ(s.maj_nodes, 1);
    EXPECT_EQ(s.xor_nodes + s.xnor_nodes, 2);
    EXPECT_EQ(r.gate_count, 3) << "no inverter should be needed";
}

TEST(Mapper, AndBecomesNandPlusPolarity) {
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    net.add_output("y", net.add_and(a, b));
    const MappedResult r = map_network(net, lib());
    EXPECT_TRUE(net::check_equivalent(net, r.netlist).equivalent);
    const auto s = r.netlist.stats();
    EXPECT_EQ(s.and_nodes, 1);  // the NAND (stats bucket AND family)
    EXPECT_EQ(s.not_nodes, 1);  // output polarity inverter
    EXPECT_EQ(r.gate_count, 2);
}

TEST(Mapper, BubblePushingAvoidsInverterChains) {
    // y = !(!(a&b) & !(c&d)) = (a&b) | (c&d): NAND(NAND,NAND) needs exactly
    // 3 NAND cells and zero inverters.
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId c = net.add_input("c");
    const NodeId d = net.add_input("d");
    net.add_output("y", net.add_or(net.add_and(a, b), net.add_and(c, d)));
    const MappedResult r = map_network(net, lib());
    EXPECT_TRUE(net::check_equivalent(net, r.netlist).equivalent);
    EXPECT_EQ(r.gate_count, 3);
    EXPECT_EQ(r.netlist.stats().not_nodes, 0);
}

TEST(Mapper, XorPolarityFoldsIntoXnorCell) {
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    net.add_output("y", net.add_xor(net.add_not(a), b));
    const MappedResult r = map_network(net, lib());
    EXPECT_TRUE(net::check_equivalent(net, r.netlist).equivalent);
    EXPECT_EQ(r.gate_count, 1);
    EXPECT_EQ(r.netlist.stats().xnor_nodes, 1);
}

TEST(Mapper, MajSelfDualityAbsorbsBubbles) {
    // Maj(!a, !b, !c) = !Maj(a,b,c): one MAJ3 + one INV beats three INVs.
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId c = net.add_input("c");
    net.add_output("y",
                   net.add_maj(net.add_not(a), net.add_not(b), net.add_not(c)));
    const MappedResult r = map_network(net, lib());
    EXPECT_TRUE(net::check_equivalent(net, r.netlist).equivalent);
    EXPECT_EQ(r.netlist.stats().maj_nodes, 1);
    EXPECT_LE(r.gate_count, 2);
}

TEST(Mapper, AreaAndCountAccounting) {
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    net.add_output("y", net.add_xor(a, b));
    net.add_output("z", net.add_and(a, b));
    const MappedResult r = map_network(net, lib());
    const double expected = lib().cell_for(GateKind::kXor).area_um2 +
                            lib().cell_for(GateKind::kNand).area_um2 +
                            lib().cell_for(GateKind::kNot).area_um2;
    EXPECT_NEAR(r.area_um2, expected, 1e-12);
    EXPECT_EQ(r.gate_count, 3);
}

TEST(Mapper, SopInputsAreMappable) {
    std::mt19937_64 rng(1501);
    Network net;
    std::vector<NodeId> ins;
    for (int i = 0; i < 6; ++i) {
        ins.push_back(net.add_input(std::string("i").append(std::to_string(i))));
    }
    for (int o = 0; o < 3; ++o) {
        const tt::TruthTable f = tt::TruthTable::random(6, rng);
        net.add_output(std::string("o").append(std::to_string(o)),
                       net.add_sop(ins, net::Sop::isop(f), ""));
    }
    const MappedResult r = map_network(net, lib());
    EXPECT_TRUE(is_library_netlist(r.netlist));
    EXPECT_TRUE(net::check_equivalent(net, r.netlist).equivalent);

    // Covers of arity 1-7 over the leading inputs, and the two constant
    // covers: the mapper factors each one straight into cells.
    Network covers;
    std::vector<NodeId> pins;
    for (int i = 0; i < 7; ++i) {
        pins.push_back(covers.add_input(std::string("i").append(std::to_string(i))));
    }
    for (int arity : {1, 2, 3, 5, 7}) {
        for (int trial = 0; trial < 10; ++trial) {
            const tt::TruthTable f = tt::TruthTable::random(arity, rng);
            const std::vector<NodeId> fanins(pins.begin(), pins.begin() + arity);
            const std::string name = std::string("a").append(std::to_string(arity))
                                         .append("t").append(std::to_string(trial));
            covers.add_output(name, covers.add_sop(fanins, net::Sop::isop(f), ""));
        }
    }
    covers.add_output("zero", covers.add_sop({}, net::Sop(0), ""));
    covers.add_output("one", covers.add_sop({}, net::Sop::constant(true, 0), ""));
    const MappedResult rc = map_network(covers, lib());
    EXPECT_TRUE(is_library_netlist(rc.netlist));
    EXPECT_TRUE(net::check_equivalent(covers, rc.netlist).equivalent);
}

TEST(Timing, DelayGrowsWithDepthAndLoad) {
    // A chain of XORs: delay must increase per stage; a high-fanout driver
    // must be slower than a fanout-1 driver.
    Network chain;
    NodeId x = chain.add_input("x");
    const NodeId y = chain.add_input("y");
    for (int i = 0; i < 8; ++i) x = chain.add_xor(x, y);
    chain.add_output("o", x);
    const MappedResult r8 = map_network(chain, lib());

    Network short_chain;
    NodeId s = short_chain.add_input("x");
    const NodeId t = short_chain.add_input("y");
    for (int i = 0; i < 2; ++i) s = short_chain.add_xor(s, t);
    short_chain.add_output("o", s);
    const MappedResult r2 = map_network(short_chain, lib());
    EXPECT_GT(r8.delay_ns, r2.delay_ns);

    // Load dependence.
    Network fanout;
    const NodeId a = fanout.add_input("a");
    const NodeId b = fanout.add_input("b");
    const NodeId g = fanout.add_xor(a, b);
    for (int i = 0; i < 6; ++i) {
        fanout.add_output(std::string("o").append(std::to_string(i)), fanout.add_xor(g, b));
    }
    const MappedResult rf = map_network(fanout, lib());
    Network single;
    const NodeId a2 = single.add_input("a");
    const NodeId b2 = single.add_input("b");
    single.add_output("o", single.add_xor(single.add_xor(a2, b2), b2));
    const MappedResult rs = map_network(single, lib());
    EXPECT_GT(rf.delay_ns, rs.delay_ns);
}

TEST(Timing, ConstantsAndWiresAreFree) {
    Network net;
    const NodeId a = net.add_input("a");
    net.add_output("w", a);
    net.add_output("c", net.add_constant(true));
    const MappedResult r = map_network(net, lib());
    EXPECT_EQ(r.gate_count, 0);
    EXPECT_EQ(r.delay_ns, 0.0);
    EXPECT_EQ(r.area_um2, 0.0);
}

TEST(Mapper, RandomNetworksStayEquivalent) {
    std::mt19937_64 rng(1601);
    for (int trial = 0; trial < 10; ++trial) {
        Network net;
        std::vector<NodeId> pool;
        for (int i = 0; i < 7; ++i) {
            pool.push_back(net.add_input(std::string("i").append(std::to_string(i))));
        }
        for (int g = 0; g < 50; ++g) {
            const auto pick = [&] { return pool[rng() % pool.size()]; };
            switch (rng() % 7) {
                case 0: pool.push_back(net.add_and(pick(), pick())); break;
                case 1: pool.push_back(net.add_or(pick(), pick())); break;
                case 2: pool.push_back(net.add_xor(pick(), pick())); break;
                case 3: pool.push_back(net.add_xnor(pick(), pick())); break;
                case 4: pool.push_back(net.add_not(pick())); break;
                case 5: pool.push_back(net.add_maj(pick(), pick(), pick())); break;
                default: pool.push_back(net.add_mux(pick(), pick(), pick())); break;
            }
        }
        for (int o = 0; o < 4; ++o) {
            net.add_output(std::string("o").append(std::to_string(o)),
                           pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
        }
        const MappedResult r = map_network(net, lib());
        ASSERT_TRUE(is_library_netlist(r.netlist)) << "trial " << trial;
        ASSERT_TRUE(net::check_equivalent(net, r.netlist).equivalent)
            << "trial " << trial;
    }
}

}  // namespace
}  // namespace bdsmaj::mapping
