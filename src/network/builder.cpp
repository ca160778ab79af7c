#include "network/builder.hpp"

#include <algorithm>

namespace bdsmaj::net {

Signal HashedNetworkBuilder::constant(bool value) {
    if (const_node_[value] == kNoNode) const_node_[value] = net_.add_constant(value);
    return Signal{const_node_[value], false};
}

bool HashedNetworkBuilder::is_const(const Signal& s, bool value) const {
    if (s.node == kNoNode) return false;
    const GateKind k = net_.node(s.node).kind;
    if (k != GateKind::kConst0 && k != GateKind::kConst1) return false;
    return ((k == GateKind::kConst1) != s.complemented) == value;
}

bool HashedNetworkBuilder::is_any_const(const Signal& s) const {
    return is_const(s, false) || is_const(s, true);
}

NodeId HashedNetworkBuilder::realize(Signal s) {
    if (!s.complemented) return s.node;
    auto [it, fresh] = inverter_cache_.try_emplace(s.node, kNoNode);
    if (fresh) {
        const GateKind k = net_.node(s.node).kind;
        if (k == GateKind::kConst0 || k == GateKind::kConst1) {
            it->second = constant(k == GateKind::kConst0).node;
        } else if (k == GateKind::kXor || k == GateKind::kXnor) {
            // The complement of an XOR is the dual gate over the same
            // fanins; this is how XNOR nodes appear in decomposed networks.
            const GateKind dual =
                k == GateKind::kXor ? GateKind::kXnor : GateKind::kXor;
            it->second = hashed_gate(dual, net_.node(s.node).fanins).node;
        } else {
            it->second = net_.add_not(s.node);
        }
    }
    return it->second;
}

NodeId HashedNetworkBuilder::realized_complement(NodeId node) const {
    const auto it = inverter_cache_.find(node);
    return it == inverter_cache_.end() ? kNoNode : it->second;
}

Signal HashedNetworkBuilder::hashed_gate(GateKind kind, std::vector<NodeId> fanins) {
    if (kind == GateKind::kAnd || kind == GateKind::kOr || kind == GateKind::kXor ||
        kind == GateKind::kXnor || kind == GateKind::kNand || kind == GateKind::kNor ||
        kind == GateKind::kMaj) {
        std::sort(fanins.begin(), fanins.end());
    }
    const auto key = std::make_pair(kind, fanins);
    auto [it, fresh] = gate_cache_.try_emplace(key, kNoNode);
    if (fresh) it->second = net_.add_gate(kind, fanins);
    return Signal{it->second, false};
}

Signal HashedNetworkBuilder::build_and(Signal a, Signal b) {
    if (is_const(a, false) || is_const(b, false)) return constant(false);
    if (is_const(a, true)) return b;
    if (is_const(b, true)) return a;
    if (a == b) return a;
    if (a.node == b.node) return constant(false);  // a & !a
    return hashed_gate(GateKind::kAnd, {realize(a), realize(b)});
}

Signal HashedNetworkBuilder::build_or(Signal a, Signal b) {
    if (is_const(a, true) || is_const(b, true)) return constant(true);
    if (is_const(a, false)) return b;
    if (is_const(b, false)) return a;
    if (a == b) return a;
    if (a.node == b.node) return constant(true);  // a | !a
    return hashed_gate(GateKind::kOr, {realize(a), realize(b)});
}

Signal HashedNetworkBuilder::build_xor(Signal a, Signal b) {
    // Complements fold into the output polarity.
    bool complement_out = a.complemented != b.complemented;
    a.complemented = false;
    b.complemented = false;
    if (is_const(a, false)) return Signal{b.node, complement_out};
    if (is_const(b, false)) return Signal{a.node, complement_out};
    if (is_const(a, true)) return Signal{b.node, !complement_out};
    if (is_const(b, true)) return Signal{a.node, !complement_out};
    if (a.node == b.node) return constant(complement_out);
    Signal r = hashed_gate(GateKind::kXor, {realize(a), realize(b)});
    r.complemented = complement_out;
    return r;
}

Signal HashedNetworkBuilder::build_maj(Signal a, Signal b, Signal c) {
    if (a == b || a == c) return a;
    if (b == c) return b;
    // Two equal nodes with opposite polarity: majority reduces to the third.
    if (a.node == b.node) return c;
    if (a.node == c.node) return b;
    if (b.node == c.node) return a;
    if (is_const(c, false)) return build_and(a, b);
    if (is_const(c, true)) return build_or(a, b);
    if (is_const(b, false)) return build_and(a, c);
    if (is_const(b, true)) return build_or(a, c);
    if (is_const(a, false)) return build_and(b, c);
    if (is_const(a, true)) return build_or(b, c);
    // Self-duality: normalize so at most one input is complemented.
    const int complemented_inputs = static_cast<int>(a.complemented) +
                                    static_cast<int>(b.complemented) +
                                    static_cast<int>(c.complemented);
    bool complement_out = false;
    if (complemented_inputs >= 2) {
        a = !a;
        b = !b;
        c = !c;
        complement_out = true;
    }
    Signal r = hashed_gate(GateKind::kMaj, {realize(a), realize(b), realize(c)});
    r.complemented = complement_out;
    return r;
}

Signal HashedNetworkBuilder::build_mux(Signal s, Signal t, Signal e) {
    if (is_const(s, true)) return t;
    if (is_const(s, false)) return e;
    if (t == e) return t;
    if (s.complemented) {
        std::swap(t, e);
        s.complemented = false;
    }
    if (is_const(t, true) && is_const(e, false)) return s;
    if (is_const(t, false) && is_const(e, true)) return !s;
    if (is_const(t, true)) return build_or(s, e);
    if (is_const(t, false)) return build_and(!s, e);
    if (is_const(e, false)) return build_and(s, t);
    if (is_const(e, true)) return build_or(!s, t);
    if (t.node == e.node) {
        // t == !e here (t == e was handled), so MUX(s, !e, e) = s XOR e.
        return build_xor(s, e);
    }
    // Expand: (s & t) | (!s & e), staying in the AND/OR/NOT alphabet.
    return build_or(build_and(s, t), build_and(!s, e));
}

Signal HashedNetworkBuilder::build_sop(const std::vector<Signal>& fanins, const Sop& sop) {
    if (sop.is_const0()) return constant(false);
    if (sop.is_const1()) return constant(true);
    std::vector<NodeId> realized;
    realized.reserve(fanins.size());
    std::string cover_key;
    for (const Signal& s : fanins) realized.push_back(realize(s));
    for (const Cube& c : sop.cubes()) {
        cover_key += c.to_string();
        cover_key += '|';
    }
    const auto key = std::make_pair(realized, cover_key);
    auto [it, fresh] = sop_cache_.try_emplace(key, kNoNode);
    if (fresh) it->second = net_.add_sop(realized, sop);
    return Signal{it->second, false};
}

}  // namespace bdsmaj::net
