#include "mapping/mapper.hpp"

#include <algorithm>
#include <cassert>
#include <map>

#include "mapping/timing.hpp"
#include "network/cleanup.hpp"
#include "network/factor.hpp"

namespace bdsmaj::mapping {

namespace {

using net::GateKind;
using net::Network;
using net::NodeId;

/// Polarity-aware netlist construction over library cells.
class NetlistBuilder {
public:
    explicit NetlistBuilder(Network& out) : out_(out) {}

    struct Sig {
        NodeId node = net::kNoNode;
        bool complemented = false;
        Sig operator!() const { return Sig{node, !complemented}; }
    };

    Sig constant(bool value) {
        if (const_node_[value] == net::kNoNode) {
            const_node_[value] = out_.add_constant(value);
        }
        return Sig{const_node_[value], false};
    }

    bool is_const(const Sig& s, bool value) const {
        if (s.node == net::kNoNode) return false;
        const GateKind k = out_.node(s.node).kind;
        if (k != GateKind::kConst0 && k != GateKind::kConst1) return false;
        return ((k == GateKind::kConst1) != s.complemented) == value;
    }

    /// Marginal inverters needed to present `s` with positive polarity.
    int inv_cost(const Sig& s) const {
        if (!s.complemented) return 0;
        return inverter_cache_.contains(s.node) ? 0 : 1;
    }

    NodeId realize(Sig s) {
        if (!s.complemented) return s.node;
        auto [it, fresh] = inverter_cache_.try_emplace(s.node, net::kNoNode);
        if (fresh) {
            const GateKind k = out_.node(s.node).kind;
            if (k == GateKind::kConst0 || k == GateKind::kConst1) {
                it->second = constant(k == GateKind::kConst0).node;
            } else if (k == GateKind::kXor || k == GateKind::kXnor) {
                // The complement of an XOR cell is the dual cell over the
                // same pins: no inverter needed.
                const GateKind dual =
                    k == GateKind::kXor ? GateKind::kXnor : GateKind::kXor;
                it->second = hashed(dual, out_.node(s.node).fanins).node;
            } else {
                it->second = out_.add_gate(GateKind::kNot, {s.node});
            }
        }
        return it->second;
    }

    Sig cell2(GateKind kind, Sig a, Sig b) {
        std::vector<NodeId> fanins{realize(a), realize(b)};
        std::sort(fanins.begin(), fanins.end());
        return hashed(kind, std::move(fanins));
    }

    Sig cell3(GateKind kind, Sig a, Sig b, Sig c) {
        std::vector<NodeId> fanins{realize(a), realize(b), realize(c)};
        std::sort(fanins.begin(), fanins.end());
        return hashed(kind, std::move(fanins));
    }

    /// AND with bubble pushing: !NAND2(a,b) or NOR2(!a,!b), whichever needs
    /// fewer inverters.
    Sig map_and(Sig a, Sig b) {
        if (is_const(a, false) || is_const(b, false)) return constant(false);
        if (is_const(a, true)) return b;
        if (is_const(b, true)) return a;
        if (a.node == b.node) {
            return a.complemented == b.complemented ? a : constant(false);
        }
        const int nand_cost = inv_cost(a) + inv_cost(b);
        const int nor_cost = inv_cost(!a) + inv_cost(!b);
        if (nor_cost < nand_cost) return cell2(GateKind::kNor, !a, !b);
        return !cell2(GateKind::kNand, a, b);
    }

    Sig map_or(Sig a, Sig b) { return !map_and(!a, !b); }

    /// XOR absorbs input polarity into the XOR2/XNOR2 cell choice.
    Sig map_xor(Sig a, Sig b) {
        const bool flip = a.complemented != b.complemented;
        a.complemented = false;
        b.complemented = false;
        if (is_const(a, false)) return Sig{b.node, flip};
        if (is_const(b, false)) return Sig{a.node, flip};
        if (is_const(a, true)) return Sig{b.node, !flip};
        if (is_const(b, true)) return Sig{a.node, !flip};
        if (a.node == b.node) return constant(flip);
        return cell2(flip ? GateKind::kXnor : GateKind::kXor, a, b);
    }

    /// MAJ3 with self-duality bubble absorption (at most one inverter).
    Sig map_maj(Sig a, Sig b, Sig c) {
        if (is_const(a, false)) return map_and(b, c);
        if (is_const(a, true)) return map_or(b, c);
        if (is_const(b, false)) return map_and(a, c);
        if (is_const(b, true)) return map_or(a, c);
        if (is_const(c, false)) return map_and(a, b);
        if (is_const(c, true)) return map_or(a, b);
        const int complemented = static_cast<int>(a.complemented) +
                                 static_cast<int>(b.complemented) +
                                 static_cast<int>(c.complemented);
        if (complemented >= 2) return !cell3(GateKind::kMaj, !a, !b, !c);
        return cell3(GateKind::kMaj, a, b, c);
    }

    /// Every complement realize() created, as (node, complement) pairs.
    [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> complements() const {
        return {inverter_cache_.begin(), inverter_cache_.end()};
    }

private:
    Sig hashed(GateKind kind, std::vector<NodeId> fanins) {
        const auto key = std::make_pair(kind, fanins);
        auto [it, fresh] = cell_cache_.try_emplace(key, net::kNoNode);
        if (fresh) it->second = out_.add_gate(kind, fanins);
        return Sig{it->second, false};
    }

    Network& out_;
    std::map<std::pair<GateKind, std::vector<NodeId>>, NodeId> cell_cache_;
    std::map<NodeId, NodeId> inverter_cache_;
    NodeId const_node_[2] = {net::kNoNode, net::kNoNode};
};

}  // namespace

MappedResult map_network(const Network& network, const CellLibrary& lib) {
    // Normalize: covers become gates, MUXes expand, constants fold.
    std::vector<NodeId> factored;
    std::vector<net::Signal> cleaned;
    const Network prepared =
        net::cleanup(net::factor_network(network, &factored), &cleaned);

    Network netlist(network.model_name() + "_mapped");
    NetlistBuilder builder(netlist);
    std::vector<NetlistBuilder::Sig> sig(prepared.node_count());

    for (const NodeId id : prepared.topo_order()) {
        const net::Node& n = prepared.node(id);
        const auto in = [&](std::size_t k) { return sig[n.fanins[k]]; };
        switch (n.kind) {
            case GateKind::kInput:
                sig[id] = {netlist.add_input(n.name), false};
                break;
            case GateKind::kConst0: sig[id] = builder.constant(false); break;
            case GateKind::kConst1: sig[id] = builder.constant(true); break;
            case GateKind::kBuf: sig[id] = in(0); break;
            case GateKind::kNot: sig[id] = !in(0); break;
            case GateKind::kAnd: sig[id] = builder.map_and(in(0), in(1)); break;
            case GateKind::kNand: sig[id] = !builder.map_and(in(0), in(1)); break;
            case GateKind::kOr: sig[id] = builder.map_or(in(0), in(1)); break;
            case GateKind::kNor: sig[id] = !builder.map_or(in(0), in(1)); break;
            case GateKind::kXor: sig[id] = builder.map_xor(in(0), in(1)); break;
            case GateKind::kXnor: sig[id] = !builder.map_xor(in(0), in(1)); break;
            case GateKind::kMaj:
                sig[id] = builder.map_maj(in(0), in(1), in(2));
                break;
            case GateKind::kMux:
                // cleanup() expands MUXes; defensive fallback.
                sig[id] = builder.map_or(builder.map_and(in(0), in(1)),
                                         builder.map_and(!in(0), in(2)));
                break;
            case GateKind::kSop:
                assert(false && "factor_network must have removed SOP nodes");
                break;
        }
    }
    for (const net::OutputPort& po : prepared.outputs()) {
        netlist.add_output(po.name, builder.realize(sig[po.driver]));
    }
    MappedResult result = evaluate_netlist(std::move(netlist), lib);
    // Compose network -> factored -> prepared -> netlist.
    result.node_map.resize(network.node_count());
    for (NodeId id = 0; id < network.node_count(); ++id) {
        if (factored[id] == net::kNoNode) continue;
        const net::Signal c = cleaned[factored[id]];
        if (c.node == net::kNoNode || sig[c.node].node == net::kNoNode) continue;
        const NetlistBuilder::Sig m = sig[c.node];
        result.node_map[id] = net::Signal{m.node, m.complemented != c.complemented};
    }
    result.complements = builder.complements();
    return result;
}

MappedResult evaluate_netlist(Network netlist, const CellLibrary& lib) {
    MappedResult result;
    result.delay_ns = critical_path_ns(netlist, lib);
    for (const NodeId id : netlist.topo_order()) {
        const net::Node& n = netlist.node(id);
        if (n.kind == GateKind::kInput || n.kind == GateKind::kConst0 ||
            n.kind == GateKind::kConst1 || n.kind == GateKind::kBuf) {
            continue;
        }
        const Cell& cell = lib.cell_for(n.kind);
        result.area_um2 += cell.area_um2;
        ++result.gate_count;
    }
    result.netlist = std::move(netlist);
    return result;
}

}  // namespace bdsmaj::mapping
