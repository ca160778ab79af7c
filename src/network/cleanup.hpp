#pragma once
// Structural network cleanup: constant propagation, inverter-pair and
// buffer elimination, structural hashing of identical gates, and dead-node
// sweep. Every flow runs this after restructuring so that Table I node
// counts measure logic, not construction debris.

#include "network/network.hpp"

namespace bdsmaj::net {

/// Rebuild the network applying local simplification rules until none fire.
/// When `node_map` is given it receives, for each node of `in`, the signal
/// of the result that computes it, complement included (a default Signal,
/// node kNoNode, for nodes outside every output cone).
[[nodiscard]] Network cleanup(const Network& in,
                              std::vector<Signal>* node_map = nullptr);

}  // namespace bdsmaj::net
