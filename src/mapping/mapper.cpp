#include "mapping/mapper.hpp"

#include <initializer_list>

#include "mapping/timing.hpp"
#include "network/builder.hpp"
#include "network/cleanup.hpp"
#include "network/factor.hpp"

namespace bdsmaj::mapping {

namespace {

using net::GateKind;
using net::HashedNetworkBuilder;
using net::Network;
using net::NodeId;
using net::Signal;

// Polarity-aware cell choice over the hash-consing builder. Each function
// folds constants and duplicate operands itself, then emits library cells
// through hashed_gate(); realize() supplies the INV cells (or the dual
// XOR/XNOR cell, or the other constant).

/// Marginal inverters needed to present `s` with positive polarity.
int inv_cost(const HashedNetworkBuilder& nb, const Signal& s) {
    if (!s.complemented) return 0;
    return nb.realized_complement(s.node) != net::kNoNode ? 0 : 1;
}

/// The library cell `kind` over the realized pins.
Signal cell(HashedNetworkBuilder& nb, GateKind kind, std::initializer_list<Signal> pins) {
    std::vector<NodeId> fanins;
    for (const Signal& s : pins) fanins.push_back(nb.realize(s));
    return nb.hashed_gate(kind, std::move(fanins));
}

/// AND with bubble pushing: !NAND2(a,b) or NOR2(!a,!b), whichever needs
/// fewer inverters.
Signal map_and(HashedNetworkBuilder& nb, Signal a, Signal b) {
    if (nb.is_const(a, false) || nb.is_const(b, false)) return nb.constant(false);
    if (nb.is_const(a, true)) return b;
    if (nb.is_const(b, true)) return a;
    if (a.node == b.node) {
        return a.complemented == b.complemented ? a : nb.constant(false);
    }
    const int nand_cost = inv_cost(nb, a) + inv_cost(nb, b);
    const int nor_cost = inv_cost(nb, !a) + inv_cost(nb, !b);
    if (nor_cost < nand_cost) return cell(nb, GateKind::kNor, {!a, !b});
    return !cell(nb, GateKind::kNand, {a, b});
}

Signal map_or(HashedNetworkBuilder& nb, Signal a, Signal b) {
    return !map_and(nb, !a, !b);
}

/// XOR absorbs input polarity into the XOR2/XNOR2 cell choice.
Signal map_xor(HashedNetworkBuilder& nb, Signal a, Signal b) {
    const bool flip = a.complemented != b.complemented;
    a.complemented = false;
    b.complemented = false;
    if (nb.is_const(a, false)) return Signal{b.node, flip};
    if (nb.is_const(b, false)) return Signal{a.node, flip};
    if (nb.is_const(a, true)) return Signal{b.node, !flip};
    if (nb.is_const(b, true)) return Signal{a.node, !flip};
    if (a.node == b.node) return nb.constant(flip);
    return cell(nb, flip ? GateKind::kXnor : GateKind::kXor, {a, b});
}

/// MAJ3 with self-duality bubble absorption (at most one inverter).
Signal map_maj(HashedNetworkBuilder& nb, Signal a, Signal b, Signal c) {
    if (nb.is_const(a, false)) return map_and(nb, b, c);
    if (nb.is_const(a, true)) return map_or(nb, b, c);
    if (nb.is_const(b, false)) return map_and(nb, a, c);
    if (nb.is_const(b, true)) return map_or(nb, a, c);
    if (nb.is_const(c, false)) return map_and(nb, a, b);
    if (nb.is_const(c, true)) return map_or(nb, a, b);
    const int complemented = static_cast<int>(a.complemented) +
                             static_cast<int>(b.complemented) +
                             static_cast<int>(c.complemented);
    if (complemented >= 2) return !cell(nb, GateKind::kMaj, {!a, !b, !c});
    return cell(nb, GateKind::kMaj, {a, b, c});
}

}  // namespace

MappedResult map_network(const Network& network, const CellLibrary& lib) {
    // Normalize: MUXes expand, constants fold, equal gates merge.
    std::vector<Signal> cleaned;
    const Network prepared = net::cleanup(network, &cleaned);

    Network netlist(network.model_name() + "_mapped");
    HashedNetworkBuilder builder(netlist);
    std::vector<Signal> sig(prepared.node_count());

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
            case GateKind::kAnd: sig[id] = map_and(builder, in(0), in(1)); break;
            case GateKind::kNand: sig[id] = !map_and(builder, in(0), in(1)); break;
            case GateKind::kOr: sig[id] = map_or(builder, in(0), in(1)); break;
            case GateKind::kNor: sig[id] = !map_or(builder, in(0), in(1)); break;
            case GateKind::kXor: sig[id] = map_xor(builder, in(0), in(1)); break;
            case GateKind::kXnor: sig[id] = !map_xor(builder, in(0), in(1)); break;
            case GateKind::kMaj:
                sig[id] = map_maj(builder, in(0), in(1), in(2));
                break;
            case GateKind::kMux:
                // cleanup() expands MUXes; defensive fallback.
                sig[id] = map_or(builder, map_and(builder, in(0), in(1)),
                                 map_and(builder, !in(0), in(2)));
                break;
            case GateKind::kSop:
                // Covers are factored in place, straight into cells.
                sig[id] = net::detail::factor_generic(
                    n.sop.cubes(),
                    [&](std::size_t pos, bool positive) {
                        return positive ? in(pos) : !in(pos);
                    },
                    [&](Signal a, Signal b) { return map_and(builder, a, b); },
                    [&](Signal a, Signal b) { return map_or(builder, a, b); },
                    [&](bool value) { return builder.constant(value); });
                break;
        }
    }
    for (const net::OutputPort& po : prepared.outputs()) {
        netlist.add_output(po.name, builder.realize(sig[po.driver]));
    }
    MappedResult result = evaluate_netlist(std::move(netlist), lib);
    // Compose network -> prepared -> netlist.
    result.node_map.resize(network.node_count());
    for (NodeId id = 0; id < network.node_count(); ++id) {
        const Signal c = cleaned[id];
        if (c.node == net::kNoNode || sig[c.node].node == net::kNoNode) continue;
        const Signal m = sig[c.node];
        result.node_map[id] = Signal{m.node, m.complemented != c.complemented};
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
