#pragma once
// Hash-consing network construction with polarity-tracking signals.
//
// A Signal is (node, complement); inverters stay symbolic until a polarity
// must be materialized, so chains of complements cancel for free. Gates are
// structurally hashed: building the same gate twice returns the same node.
// This is the mechanism behind the BDS factoring-tree "on-line logic
// sharing" (paper SIV-C): the decomposition engine emits its trees through
// this builder, and equal subtrees — within or across supernodes — unify.
//
// Local simplification rules (constant folding, duplicate-input collapse,
// MAJ self-duality normalization, MUX degeneration) fire during build, so
// clients never create foldable gates.

#include <map>

#include "network/gate_sink.hpp"
#include "network/network.hpp"

namespace bdsmaj::net {

/// The direct-emission GateSink: Signals carry NodeIds of `net`.
class HashedNetworkBuilder final : public GateSink {
public:
    /// The builder appends to `net`; `net` must outlive the builder.
    explicit HashedNetworkBuilder(Network& net) : net_(net) {}

    [[nodiscard]] Network& network() noexcept { return net_; }

    [[nodiscard]] Signal constant(bool value) override;
    [[nodiscard]] bool is_const(const Signal& s, bool value) const;
    [[nodiscard]] bool is_any_const(const Signal& s) const;

    [[nodiscard]] Signal build_and(Signal a, Signal b) override;
    [[nodiscard]] Signal build_or(Signal a, Signal b) override;
    [[nodiscard]] Signal build_xor(Signal a, Signal b) override;
    [[nodiscard]] Signal build_maj(Signal a, Signal b, Signal c) override;
    /// MUX is expanded to OR(AND(s,t), AND(!s,e)) when it does not simplify,
    /// keeping decomposed networks within the Table I operator alphabet.
    [[nodiscard]] Signal build_mux(Signal s, Signal t, Signal e) override;
    /// Hash-consed SOP node over realized fanins.
    [[nodiscard]] Signal build_sop(const std::vector<Signal>& fanins, const Sop& sop);

    /// Materialize the polarity: emits (and caches) a NOT gate if needed.
    NodeId realize(Signal s);
    /// The node realize() emitted for the complement of `node`, or kNoNode.
    [[nodiscard]] NodeId realized_complement(NodeId node) const;

private:
    Signal hashed_gate(GateKind kind, std::vector<NodeId> fanins);

    Network& net_;
    std::map<std::pair<GateKind, std::vector<NodeId>>, NodeId> gate_cache_;
    std::map<std::pair<std::vector<NodeId>, std::string>, NodeId> sop_cache_;
    std::map<NodeId, NodeId> inverter_cache_;
    NodeId const_node_[2] = {kNoNode, kNoNode};
};

}  // namespace bdsmaj::net
