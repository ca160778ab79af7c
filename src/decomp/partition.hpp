#pragma once
// Network partitioning (paper SIV-A): partial collapse of the input network
// into supernodes, each small enough for a local BDD.
//
// The collapse policy follows the eliminate-style preprocessing of BDS:
// a node is absorbed into its (unique) fanout while the merged cone's leaf
// support stays within bounds; multi-fanout nodes, primary inputs and
// support-limited nodes become cut points. Every cut point then roots one
// supernode whose leaves are the nearest cut points below it.

#include <vector>

#include "network/network.hpp"

namespace bdsmaj::net {
class Network;
}

namespace bdsmaj::decomp {

struct PartitionParams {
    /// Maximum leaf support of a supernode (local BDD variable count).
    std::size_t max_leaves = 16;
    /// Absorb multi-fanout nodes too when their fanout count is at most
    /// this, duplicating their logic into each consumer's cone (BDS's
    /// eliminate does the same for low-value nodes). Hash-consed factoring
    /// re-shares identical duplicates on the way out. The default of 2 is
    /// what lets an adder's g/p pairs collapse into the carry cone so the
    /// carry is seen as Maj(a, b, c).
    std::uint32_t max_absorbed_fanout = 2;
    /// A multi-fanout node is only absorbed when its own collapsed cone has
    /// at most this many gates (the BDS eliminate "value" bound); without
    /// it duplication compounds exponentially through deep datapaths.
    /// 1 = single-gate cones only (a ripple adder's generate/propagate
    /// pair), the sweet spot across the Table I suite (see
    /// bench/ablation_mdom.cpp and docs/performance.md).
    std::uint32_t max_duplicated_gates = 1;
};

struct Supernode {
    net::NodeId root = net::kNoNode;
    std::vector<net::NodeId> leaves;   ///< cut points / PIs feeding the cone
    std::vector<net::NodeId> cone;     ///< internal nodes, topological order
};

/// Partition `network` into supernodes covering every node reachable from
/// the outputs. Supernodes are returned in topological order (leaves of a
/// supernode are PIs or roots of earlier supernodes).
[[nodiscard]] std::vector<Supernode> partition_network(const net::Network& network,
                                                       const PartitionParams& params = {});

}  // namespace bdsmaj::decomp
