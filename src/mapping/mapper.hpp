#pragma once
// Technology mapping onto the six-cell library (paper SV-B1).
//
// The two-step policy of the paper:
//   1. MAJ / XOR / XNOR nodes are assigned to their cells directly, so the
//      structure highlighted by the decomposition is preserved rather than
//      re-hidden by a generic mapper;
//   2. the remaining AND/OR logic is covered with NAND2/NOR2/INV using
//      polarity-aware construction (bubble pushing): each signal carries a
//      pending complement and an inverter cell is emitted only when a
//      polarity must be materialized, with AND/OR freely re-expressed as
//      NAND/NOR of complemented operands to absorb bubbles.
//
// The mapped netlist is a Network restricted to library gate kinds (plus
// inputs/constants), so simulation-based equivalence against the source
// network works unchanged. map_network also returns where each source node
// landed, which is what the local mapping certificate (mapping/certify.hpp)
// checks instead of a second global equivalence proof.

#include <utility>
#include <vector>

#include "mapping/library.hpp"
#include "network/network.hpp"

namespace bdsmaj::mapping {

struct MappedResult {
    net::Network netlist;
    double area_um2 = 0.0;
    int gate_count = 0;
    double delay_ns = 0.0;
    /// For each node of the network given to map_network: the netlist node
    /// computing it and whether that node carries its complement (node
    /// kNoNode when it lies outside every output cone). Empty from
    /// evaluate_netlist.
    std::vector<net::Signal> node_map;
    /// Complements the mapper materialized, as (node, complement) pairs: an
    /// INV over the node, the dual XOR/XNOR cell over the same pins, or the
    /// other constant.
    std::vector<std::pair<net::NodeId, net::NodeId>> complements;
};

/// Map `network` (any mix of structured gates and SOP nodes) onto `lib`.
[[nodiscard]] MappedResult map_network(const net::Network& network,
                                       const CellLibrary& lib);

/// Area/gate-count/delay of an already-mapped netlist.
[[nodiscard]] MappedResult evaluate_netlist(net::Network netlist,
                                            const CellLibrary& lib);

}  // namespace bdsmaj::mapping
