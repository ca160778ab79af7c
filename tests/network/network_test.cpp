#include "network/network.hpp"

#include <gtest/gtest.h>

namespace bdsmaj::net {
namespace {

Network full_adder() {
    Network net("fa");
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId cin = net.add_input("cin");
    const NodeId sum = net.add_xor(net.add_xor(a, b), cin);
    const NodeId carry = net.add_maj(a, b, cin);
    net.add_output("sum", sum);
    net.add_output("cout", carry);
    return net;
}

TEST(Network, BuildAndInspectFullAdder) {
    const Network net = full_adder();
    EXPECT_EQ(net.inputs().size(), 3u);
    EXPECT_EQ(net.outputs().size(), 2u);
    const NetworkStats s = net.stats();
    EXPECT_EQ(s.xor_nodes, 2);
    EXPECT_EQ(s.maj_nodes, 1);
    EXPECT_EQ(s.total(), 3);
    EXPECT_EQ(net.logic_depth(), 2);
}

TEST(Network, ArityIsEnforced) {
    Network net;
    const NodeId a = net.add_input("a");
    EXPECT_THROW((void)net.add_gate(GateKind::kAnd, {a}), std::invalid_argument);
    EXPECT_THROW((void)net.add_gate(GateKind::kNot, {a, a}), std::invalid_argument);
    EXPECT_THROW((void)net.add_gate(GateKind::kMaj, {a, a}), std::invalid_argument);
    EXPECT_THROW((void)net.add_gate(GateKind::kAnd, {a, NodeId{99}}), std::out_of_range);
    EXPECT_THROW((void)net.add_sop({a}, Sop(2)), std::invalid_argument);
    EXPECT_THROW(net.add_output("x", NodeId{99}), std::out_of_range);
}

TEST(Network, TopoOrderRespectsDependencies) {
    const Network net = full_adder();
    const std::vector<NodeId> order = net.topo_order();
    std::vector<int> position(net.node_count(), -1);
    for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = static_cast<int>(i);
    for (const NodeId id : order) {
        for (const NodeId f : net.node(id).fanins) {
            EXPECT_LT(position[f], position[id]);
        }
    }
}

TEST(Network, TopoOrderSkipsUnreachableNodes) {
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId used = net.add_and(a, b);
    (void)net.add_or(a, b);  // dangling
    net.add_output("y", used);
    const auto order = net.topo_order();
    // inputs (always listed) + the AND node only.
    EXPECT_EQ(order.size(), 3u);
}

TEST(Network, FanoutCountsIncludeOutputs) {
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId g = net.add_and(a, b);
    net.add_output("y1", g);
    net.add_output("y2", g);
    const auto counts = net.fanout_counts();
    EXPECT_EQ(counts[g], 2u);
    EXPECT_EQ(counts[a], 1u);
}

TEST(Network, NamesAreGeneratedWhenAbsent) {
    Network net;
    const NodeId a = net.add_input("alpha");
    const NodeId g = net.add_and(a, a);
    EXPECT_EQ(net.node_name(a), "alpha");
    EXPECT_EQ(net.node_name(g), std::string("n").append(std::to_string(g)));
    EXPECT_EQ(net.find_input("alpha"), a);
    EXPECT_FALSE(net.find_input("beta").has_value());
}

TEST(Network, DepthIgnoresInverters) {
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId n1 = net.add_not(a);
    const NodeId n2 = net.add_and(n1, b);
    const NodeId n3 = net.add_not(n2);
    net.add_output("y", n3);
    EXPECT_EQ(net.logic_depth(), 1);
}

TEST(Network, StatsCountNandWithAndFamily) {
    // Table I buckets NAND with AND and NOR with OR.
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    net.add_output("y", net.add_gate(GateKind::kNand, {a, b}));
    net.add_output("z", net.add_gate(GateKind::kNor, {a, b}));
    const NetworkStats s = net.stats();
    EXPECT_EQ(s.and_nodes, 1);
    EXPECT_EQ(s.or_nodes, 1);
    EXPECT_EQ(s.total(), 2);
}

}  // namespace
}  // namespace bdsmaj::net
