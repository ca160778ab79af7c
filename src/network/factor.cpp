#include "network/factor.hpp"

#include <algorithm>
#include <cassert>

namespace bdsmaj::net {

namespace detail {

bool most_frequent_literal_generic(const std::vector<Cube>& cubes,
                                   GenericLitRef* out) {
    if (cubes.empty()) return false;
    // Flat per-position counters; the scan order (position ascending,
    // negative polarity before positive) matches the ordered-map iteration
    // this replaces, so ties resolve identically.
    const std::size_t arity = cubes.front().lits.size();
    std::vector<int> neg_counts(arity, 0), pos_counts(arity, 0);
    for (const Cube& c : cubes) {
        for (std::size_t i = 0; i < c.lits.size(); ++i) {
            if (c.lits[i] == Lit::kPos) {
                ++pos_counts[i];
            } else if (c.lits[i] == Lit::kNeg) {
                ++neg_counts[i];
            }
        }
    }
    int best = 1;
    for (std::size_t i = 0; i < arity; ++i) {
        if (neg_counts[i] > best) {
            best = neg_counts[i];
            *out = GenericLitRef{i, false};
        }
        if (pos_counts[i] > best) {
            best = pos_counts[i];
            *out = GenericLitRef{i, true};
        }
    }
    return best > 1;
}

}  // namespace detail

int factored_literal_count(const Sop& sop) {
    // Cost carrier: number of literal leaves in the factored tree.
    struct Cost {
        int literals;
    };
    const Cost total = detail::factor_generic(
        sop.cubes(), [](std::size_t, bool) { return Cost{1}; },
        [](Cost a, Cost b) { return Cost{a.literals + b.literals}; },
        [](Cost a, Cost b) { return Cost{a.literals + b.literals}; },
        [](bool) { return Cost{0}; });
    return total.literals;
}

NodeId synthesize_sop(Network& net, const std::vector<NodeId>& fanins, const Sop& sop) {
    assert(sop.arity() == fanins.size());
    // Cache inverters so repeated negative literals share one NOT gate.
    std::vector<NodeId> inverted(fanins.size(), kNoNode);
    return detail::factor_generic(
        sop.cubes(),
        [&](std::size_t pos, bool positive) {
            if (positive) return fanins[pos];
            if (inverted[pos] == kNoNode) inverted[pos] = net.add_not(fanins[pos]);
            return inverted[pos];
        },
        [&](NodeId a, NodeId b) { return net.add_and(a, b); },
        [&](NodeId a, NodeId b) { return net.add_or(a, b); },
        [&](bool value) { return net.add_constant(value); });
}

Network factor_network(const Network& in, std::vector<NodeId>* node_map) {
    Network out(in.model_name());
    std::vector<NodeId> map(in.node_count(), kNoNode);
    for (const NodeId id : in.topo_order()) {
        const Node& n = in.node(id);
        if (n.kind == GateKind::kInput) {
            map[id] = out.add_input(n.name);
            continue;
        }
        std::vector<NodeId> fanins;
        fanins.reserve(n.fanins.size());
        for (const NodeId f : n.fanins) fanins.push_back(map[f]);
        if (n.kind == GateKind::kSop) {
            map[id] = synthesize_sop(out, fanins, n.sop);
        } else if (n.kind == GateKind::kConst0 || n.kind == GateKind::kConst1) {
            map[id] = out.add_constant(n.kind == GateKind::kConst1);
        } else {
            map[id] = out.add_gate(n.kind, fanins, n.name);
        }
    }
    for (const OutputPort& po : in.outputs()) {
        out.add_output(po.name, map[po.driver]);
    }
    if (node_map != nullptr) *node_map = std::move(map);
    return out;
}

}  // namespace bdsmaj::net
