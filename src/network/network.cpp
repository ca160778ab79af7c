#include "network/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace bdsmaj::net {

const char* gate_kind_name(GateKind kind) {
    switch (kind) {
        case GateKind::kInput: return "input";
        case GateKind::kConst0: return "const0";
        case GateKind::kConst1: return "const1";
        case GateKind::kBuf: return "buf";
        case GateKind::kNot: return "not";
        case GateKind::kAnd: return "and";
        case GateKind::kOr: return "or";
        case GateKind::kNand: return "nand";
        case GateKind::kNor: return "nor";
        case GateKind::kXor: return "xor";
        case GateKind::kXnor: return "xnor";
        case GateKind::kMaj: return "maj";
        case GateKind::kMux: return "mux";
        case GateKind::kSop: return "sop";
    }
    return "?";
}

int gate_kind_arity(GateKind kind) {
    switch (kind) {
        case GateKind::kInput:
        case GateKind::kConst0:
        case GateKind::kConst1: return 0;
        case GateKind::kBuf:
        case GateKind::kNot: return 1;
        case GateKind::kAnd:
        case GateKind::kOr:
        case GateKind::kNand:
        case GateKind::kNor:
        case GateKind::kXor:
        case GateKind::kXnor: return 2;
        case GateKind::kMaj:
        case GateKind::kMux: return 3;
        case GateKind::kSop: return -1;
    }
    return -1;
}

NodeId Network::add_input(const std::string& name) {
    Node n;
    n.kind = GateKind::kInput;
    n.name = name;
    nodes_.push_back(std::move(n));
    const auto id = static_cast<NodeId>(nodes_.size() - 1);
    inputs_.push_back(id);
    return id;
}

NodeId Network::add_constant(bool value) {
    Node n;
    n.kind = value ? GateKind::kConst1 : GateKind::kConst0;
    nodes_.push_back(std::move(n));
    return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Network::add_gate(GateKind kind, const std::vector<NodeId>& fanins,
                         const std::string& name) {
    const int arity = gate_kind_arity(kind);
    if (arity < 0 || static_cast<std::size_t>(arity) != fanins.size()) {
        throw std::invalid_argument(std::string("add_gate: bad arity for ") +
                                    gate_kind_name(kind));
    }
    for (const NodeId f : fanins) {
        if (f >= nodes_.size()) throw std::out_of_range("add_gate: unknown fanin");
    }
    Node n;
    n.kind = kind;
    n.fanins = fanins;
    n.name = name;
    nodes_.push_back(std::move(n));
    return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Network::add_sop(const std::vector<NodeId>& fanins, Sop sop,
                        const std::string& name) {
    if (sop.arity() != fanins.size()) {
        throw std::invalid_argument("add_sop: cover arity != fanin count");
    }
    for (const NodeId f : fanins) {
        if (f >= nodes_.size()) throw std::out_of_range("add_sop: unknown fanin");
    }
    Node n;
    n.kind = GateKind::kSop;
    n.fanins = fanins;
    n.sop = std::move(sop);
    n.name = name;
    nodes_.push_back(std::move(n));
    return static_cast<NodeId>(nodes_.size() - 1);
}

void Network::add_output(const std::string& name, NodeId driver) {
    if (driver >= nodes_.size()) throw std::out_of_range("add_output: unknown driver");
    outputs_.push_back(OutputPort{name, driver});
}

std::string Network::node_name(NodeId id) const {
    const Node& n = nodes_.at(id);
    if (!n.name.empty()) return n.name;
    return std::string("n").append(std::to_string(id));
}

std::optional<NodeId> Network::find_input(const std::string& name) const {
    for (const NodeId id : inputs_) {
        if (nodes_[id].name == name) return id;
    }
    return std::nullopt;
}

std::vector<NodeId> Network::topo_order() const {
    // Fanins always have smaller ids than their gate (enforced at
    // construction), so the network is acyclic and ascending id order is a
    // topological order; restrict it to nodes reachable from the outputs,
    // plus all primary inputs.
    std::vector<bool> reachable(nodes_.size(), false);
    std::vector<NodeId> stack;
    for (const OutputPort& po : outputs_) {
        if (!reachable[po.driver]) {
            reachable[po.driver] = true;
            stack.push_back(po.driver);
        }
    }
    while (!stack.empty()) {
        const NodeId id = stack.back();
        stack.pop_back();
        for (const NodeId f : nodes_[id].fanins) {
            if (!reachable[f]) {
                reachable[f] = true;
                stack.push_back(f);
            }
        }
    }
    for (const NodeId id : inputs_) reachable[id] = true;
    std::vector<NodeId> order;
    order.reserve(nodes_.size());
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        if (reachable[id]) order.push_back(id);
    }
    return order;
}

std::vector<std::uint32_t> Network::fanout_counts() const {
    std::vector<std::uint32_t> counts(nodes_.size(), 0);
    for (const Node& n : nodes_) {
        for (const NodeId f : n.fanins) ++counts[f];
    }
    for (const OutputPort& po : outputs_) ++counts[po.driver];
    return counts;
}

NetworkStats Network::stats() const {
    NetworkStats s;
    s.inputs = static_cast<int>(inputs_.size());
    s.outputs = static_cast<int>(outputs_.size());
    for (const NodeId id : topo_order()) {
        switch (nodes_[id].kind) {
            case GateKind::kAnd:
            case GateKind::kNand: ++s.and_nodes; break;
            case GateKind::kOr:
            case GateKind::kNor: ++s.or_nodes; break;
            case GateKind::kXor: ++s.xor_nodes; break;
            case GateKind::kXnor: ++s.xnor_nodes; break;
            case GateKind::kMaj: ++s.maj_nodes; break;
            case GateKind::kMux: ++s.mux_nodes; break;
            case GateKind::kNot: ++s.not_nodes; break;
            case GateKind::kSop: ++s.sop_nodes; break;
            case GateKind::kBuf:
            case GateKind::kConst0:
            case GateKind::kConst1: ++s.other_nodes; break;
            case GateKind::kInput: break;
        }
    }
    return s;
}

int Network::logic_depth() const {
    std::vector<int> depth(nodes_.size(), 0);
    int max_depth = 0;
    for (const NodeId id : topo_order()) {
        const Node& n = nodes_[id];
        int d = 0;
        for (const NodeId f : n.fanins) d = std::max(d, depth[f]);
        const bool transparent = n.kind == GateKind::kNot ||
                                 n.kind == GateKind::kBuf ||
                                 n.kind == GateKind::kInput ||
                                 n.kind == GateKind::kConst0 ||
                                 n.kind == GateKind::kConst1;
        depth[id] = d + (transparent ? 0 : 1);
        max_depth = std::max(max_depth, depth[id]);
    }
    return max_depth;
}

}  // namespace bdsmaj::net
