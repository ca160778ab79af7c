#include "decomp/partition.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

namespace bdsmaj::decomp {
namespace {

using net::Network;
using net::NodeId;

Network two_output_tree() {
    Network net("tree");
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId c = net.add_input("c");
    const NodeId d = net.add_input("d");
    const NodeId ab = net.add_and(a, b);
    const NodeId cd = net.add_or(c, d);
    const NodeId shared = net.add_xor(ab, cd);  // fanout 2
    net.add_output("y1", net.add_and(shared, a));
    net.add_output("y2", net.add_or(shared, d));
    return net;
}

TEST(Partition, SingleConeCollapsesToOneSupernode) {
    Network net("cone");
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId c = net.add_input("c");
    net.add_output("y", net.add_and(net.add_or(a, b), c));
    const auto sns = partition_network(net);
    ASSERT_EQ(sns.size(), 1u);
    EXPECT_EQ(sns[0].leaves.size(), 3u);
    EXPECT_EQ(sns[0].cone.size(), 2u);
}

TEST(Partition, SharedNodeBecomesCutPoint) {
    const Network net = two_output_tree();
    const auto sns = partition_network(net);
    // The shared XOR node roots its own supernode; each PO cone roots one.
    ASSERT_EQ(sns.size(), 3u);
    // Supernodes are topologically ordered: the shared node comes first.
    const auto is_leaf_of = [&](const Supernode& sn, NodeId id) {
        return std::find(sn.leaves.begin(), sn.leaves.end(), id) != sn.leaves.end();
    };
    const NodeId shared_root = sns[0].root;
    EXPECT_TRUE(is_leaf_of(sns[1], shared_root) || is_leaf_of(sns[2], shared_root));
}

TEST(Partition, EveryReachableGateIsCoveredExactlyOnce) {
    const Network net = two_output_tree();
    const auto sns = partition_network(net);
    std::unordered_set<NodeId> covered;
    for (const Supernode& sn : sns) {
        for (const NodeId id : sn.cone) {
            EXPECT_TRUE(covered.insert(id).second) << "node in two cones";
        }
    }
    for (const NodeId id : net.topo_order()) {
        if (net.node(id).kind == net::GateKind::kInput) continue;
        EXPECT_TRUE(covered.contains(id)) << "uncovered gate " << id;
    }
}

TEST(Partition, LeavesAreCutPointsOrInputs) {
    const Network net = two_output_tree();
    const auto sns = partition_network(net);
    std::unordered_set<NodeId> roots;
    for (const Supernode& sn : sns) roots.insert(sn.root);
    for (const Supernode& sn : sns) {
        for (const NodeId leaf : sn.leaves) {
            const bool is_input = net.node(leaf).kind == net::GateKind::kInput;
            EXPECT_TRUE(is_input || roots.contains(leaf))
                << "leaf " << leaf << " is neither PI nor a supernode root";
        }
    }
}

TEST(Partition, SupportLimitIsRespected) {
    // A wide AND tree over 32 inputs with a tight leaf budget must split.
    Network net("wide");
    std::vector<NodeId> layer;
    for (int i = 0; i < 32; ++i) {
        layer.push_back(net.add_input(std::string("i").append(std::to_string(i))));
    }
    while (layer.size() > 1) {
        std::vector<NodeId> next;
        for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
            next.push_back(net.add_and(layer[i], layer[i + 1]));
        }
        if (layer.size() % 2 == 1) next.push_back(layer.back());
        layer = std::move(next);
    }
    net.add_output("y", layer[0]);
    PartitionParams params;
    params.max_leaves = 8;
    const auto sns = partition_network(net, params);
    EXPECT_GT(sns.size(), 1u);
    for (const Supernode& sn : sns) {
        EXPECT_LE(sn.leaves.size(), 8u);
    }
}

TEST(Partition, TopologicalOrderAcrossSupernodes) {
    const Network net = two_output_tree();
    const auto sns = partition_network(net);
    std::unordered_set<NodeId> seen_roots;
    for (const net::NodeId id : net.inputs()) seen_roots.insert(id);
    for (const Supernode& sn : sns) {
        for (const NodeId leaf : sn.leaves) {
            EXPECT_TRUE(seen_roots.contains(leaf))
                << "supernode uses a leaf whose supernode comes later";
        }
        seen_roots.insert(sn.root);
    }
}

TEST(Partition, PoDriverInputPassesThrough) {
    Network net("wire");
    const NodeId a = net.add_input("a");
    net.add_output("y", a);
    const auto sns = partition_network(net);
    EXPECT_TRUE(sns.empty()) << "no gates, no supernodes";
}

TEST(Partition, ConstantDriverFormsDegenerateSupernode) {
    Network net("const");
    (void)net.add_input("a");
    net.add_output("y", net.add_constant(true));
    const auto sns = partition_network(net);
    ASSERT_EQ(sns.size(), 1u);
    EXPECT_TRUE(sns[0].leaves.empty());
    EXPECT_EQ(sns[0].cone.size(), 1u);
}

}  // namespace
}  // namespace bdsmaj::decomp
