#include "aig/convert.hpp"

#include <cassert>
#include <stdexcept>

#include "network/builder.hpp"
#include "network/factor.hpp"

namespace bdsmaj::aig {

namespace {

using net::GateKind;
using net::Network;
using net::NodeId;
using net::Signal;

}  // namespace

Aig network_to_aig(const Network& network) {
    Aig aig;
    std::vector<Lit> value(network.node_count(), kLitInvalid);
    for (const NodeId id : network.inputs()) value[id] = aig.add_input();
    for (const NodeId id : network.topo_order()) {
        const net::Node& n = network.node(id);
        const auto in = [&](std::size_t k) { return value[n.fanins[k]]; };
        switch (n.kind) {
            case GateKind::kInput: break;
            case GateKind::kConst0: value[id] = kLitFalse; break;
            case GateKind::kConst1: value[id] = kLitTrue; break;
            case GateKind::kBuf: value[id] = in(0); break;
            case GateKind::kNot: value[id] = lit_not(in(0)); break;
            case GateKind::kAnd: value[id] = aig.land(in(0), in(1)); break;
            case GateKind::kOr: value[id] = aig.lor(in(0), in(1)); break;
            case GateKind::kNand: value[id] = lit_not(aig.land(in(0), in(1))); break;
            case GateKind::kNor: value[id] = lit_not(aig.lor(in(0), in(1))); break;
            case GateKind::kXor: value[id] = aig.lxor(in(0), in(1)); break;
            case GateKind::kXnor: value[id] = lit_not(aig.lxor(in(0), in(1))); break;
            case GateKind::kMaj: value[id] = aig.lmaj(in(0), in(1), in(2)); break;
            case GateKind::kMux: value[id] = aig.lmux(in(0), in(1), in(2)); break;
            case GateKind::kSop: {
                std::vector<Lit> leaves;
                leaves.reserve(n.fanins.size());
                for (const NodeId f : n.fanins) leaves.push_back(value[f]);
                value[id] = net::detail::factor_generic(
                    n.sop.cubes(),
                    [&](std::size_t pos, bool positive) {
                        return positive ? leaves[pos] : lit_not(leaves[pos]);
                    },
                    [&](Lit a, Lit b) { return aig.land(a, b); },
                    [&](Lit a, Lit b) { return aig.lor(a, b); },
                    [](bool v) { return v ? kLitTrue : kLitFalse; });
                break;
            }
        }
    }
    for (const net::OutputPort& po : network.outputs()) {
        if (value[po.driver] == kLitInvalid) {
            throw std::runtime_error("network_to_aig: undriven output");
        }
        aig.add_output(value[po.driver]);
    }
    return aig;
}

Network aig_to_network(const Aig& aig, const std::vector<std::string>& input_names,
                       const std::vector<std::string>& output_names,
                       const AigToNetworkOptions& options) {
    Network out("from_aig");
    net::HashedNetworkBuilder builder(out);
    std::vector<Signal> value(aig.node_count(), Signal{});
    for (std::size_t i = 0; i < aig.input_count(); ++i) {
        const std::string name =
            i < input_names.size() ? input_names[i] : std::string("i").append(std::to_string(i));
        value[aig.inputs()[i]] = Signal{out.add_input(name), false};
    }
    const auto sig = [&](Lit l) {
        const Signal s = value[lit_node(l)];
        return lit_complemented(l) ? !s : s;
    };
    for (const NodeId n : aig.reachable_ands()) {
        const Lit f0 = aig.fanin0(n);
        const Lit f1 = aig.fanin1(n);
        if (options.detect_xor_mux && lit_complemented(f0) && lit_complemented(f1)) {
            const NodeId a = lit_node(f0);
            const NodeId b = lit_node(f1);
            if (aig.is_and(a) && aig.is_and(b)) {
                // n = !(p q) & !(r s): when {r,s} ∩ {!p,!q} shares the
                // selector, this is the MUX/XOR motif:
                //   n = !(p q) & !(!p s) = !MUX(p, q, s).
                const Lit p = aig.fanin0(a), q = aig.fanin1(a);
                const Lit r = aig.fanin0(b), s = aig.fanin1(b);
                Lit sel = kLitInvalid, t = kLitInvalid, e = kLitInvalid;
                if (r == lit_not(p)) { sel = p; t = q; e = s; }
                else if (s == lit_not(p)) { sel = p; t = q; e = r; }
                else if (r == lit_not(q)) { sel = q; t = p; e = s; }
                else if (s == lit_not(q)) { sel = q; t = p; e = r; }
                if (sel != kLitInvalid) {
                    value[n] = !builder.build_mux(sig(sel), sig(t), sig(e));
                    continue;
                }
            }
        }
        value[n] = builder.build_and(sig(f0), sig(f1));
    }
    for (std::size_t o = 0; o < aig.outputs().size(); ++o) {
        const std::string name =
            o < output_names.size() ? output_names[o] : std::string("o").append(std::to_string(o));
        Signal s;
        const Lit l = aig.outputs()[o];
        if (lit_node(l) == kConstNode) {
            s = builder.constant(lit_complemented(l));
        } else {
            s = sig(l);
        }
        out.add_output(name, builder.realize(s));
    }
    return out;
}

}  // namespace bdsmaj::aig
