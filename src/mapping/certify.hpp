#pragma once
// Local mapping certificate: proves a mapped netlist equivalent to the
// network it was mapped from node by node, with no global BDD or SAT check.
//
// map_network records where each source node landed in the netlist
// (MappedResult::node_map: a netlist node plus a pending complement) and
// which complements it materialized (MappedResult::complements). The
// checker first proves each claimed complement locally. It then walks the
// source in topological order. For a node v with k <= 6 fanins whose
// images are all proven, it binds each fanin image (and its proven
// complement) to a truth-table variable, evaluates the netlist cone of v's
// image over those bindings for all 2^k fanin values in one 64-bit word,
// and compares the result with v's own gate function. The cone walk stops
// at bound nodes and constants. Reaching any other primary input, a cone
// over the size budget, or a mismatch leaves v inconclusive. Inputs match
// by position, and each output's netlist driver is checked the same way
// against its source driver's image. By induction over the topological
// order, a complete certificate proves the netlist equivalent to the
// source. The mapper, cleanup and factor_network only propose the
// correspondence; none of them is trusted (docs/architecture.md,
// "Mapping certificate").

#include "mapping/mapper.hpp"
#include "network/network.hpp"

namespace bdsmaj::mapping {

struct MappingCertificate {
    /// Source gates and constants proven equal to their images.
    int certified_nodes = 0;
    /// Source nodes and outputs the local check could not prove.
    int inconclusive = 0;
    /// True when the certificate proves `mapped.netlist` equivalent to the
    /// source, matched positionally on inputs and outputs.
    [[nodiscard]] bool complete() const { return inconclusive == 0; }
};

/// Check `mapped` (the result of map_network(source, ...)) against
/// `source`. An incomplete certificate proves nothing either way: the
/// netlist may still be equivalent, so callers fall back to a global check.
[[nodiscard]] MappingCertificate certify_mapping(const net::Network& source,
                                                 const MappedResult& mapped);

}  // namespace bdsmaj::mapping
