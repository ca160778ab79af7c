#include "network/cleanup.hpp"

#include <cassert>

#include "network/builder.hpp"
#include "tt/truth_table.hpp"

namespace bdsmaj::net {

namespace {

/// One cleanup rebuild pass over the hash-consing builder. Gate
/// simplification lives in HashedNetworkBuilder; this pass adds SOP
/// constant-folding and dead-cone removal (only reachable nodes rebuild).
class Rebuilder {
public:
    explicit Rebuilder(const Network& in)
        : in_(in), out_(in.model_name()), builder_(out_) {}

    Network run(std::vector<Signal>* node_map) {
        map_.assign(in_.node_count(), Signal{});
        for (const NodeId id : in_.topo_order()) visit(id);
        for (const OutputPort& po : in_.outputs()) {
            out_.add_output(po.name, builder_.realize(map_[po.driver]));
        }
        if (node_map != nullptr) {
            // Prefer a materialized complement: when an XNOR is realized as
            // the dual of an XOR, the output cones may keep only the dual.
            for (Signal& s : map_) {
                const NodeId comp =
                    s.complemented ? builder_.realized_complement(s.node) : kNoNode;
                if (comp != kNoNode) s = Signal{comp, false};
            }
            *node_map = std::move(map_);
        }
        return std::move(out_);
    }

private:
    void visit(NodeId id) {
        const Node& n = in_.node(id);
        const auto sig = [&](std::size_t k) { return map_[n.fanins[k]]; };
        switch (n.kind) {
            case GateKind::kInput:
                map_[id] = Signal{out_.add_input(n.name), false};
                break;
            case GateKind::kConst0: map_[id] = builder_.constant(false); break;
            case GateKind::kConst1: map_[id] = builder_.constant(true); break;
            case GateKind::kBuf: map_[id] = sig(0); break;
            case GateKind::kNot: map_[id] = !sig(0); break;
            case GateKind::kAnd: map_[id] = builder_.build_and(sig(0), sig(1)); break;
            case GateKind::kOr: map_[id] = builder_.build_or(sig(0), sig(1)); break;
            case GateKind::kNand: map_[id] = !builder_.build_and(sig(0), sig(1)); break;
            case GateKind::kNor: map_[id] = !builder_.build_or(sig(0), sig(1)); break;
            case GateKind::kXor: map_[id] = builder_.build_xor(sig(0), sig(1)); break;
            case GateKind::kXnor: map_[id] = builder_.build_xnor(sig(0), sig(1)); break;
            case GateKind::kMaj:
                map_[id] = builder_.build_maj(sig(0), sig(1), sig(2));
                break;
            case GateKind::kMux:
                map_[id] = builder_.build_mux(sig(0), sig(1), sig(2));
                break;
            case GateKind::kSop: visit_sop(id, n); break;
        }
    }

    void visit_sop(NodeId id, const Node& n) {
        // Fold constant fanins into the cover when the arity is small
        // enough for a truth-table rebuild; otherwise keep the cover as is.
        bool any_const = false;
        for (const NodeId f : n.fanins) {
            if (builder_.is_any_const(map_[f])) {
                any_const = true;
                break;
            }
        }
        if (any_const && n.fanins.size() <= 16) {
            tt::TruthTable table = n.sop.to_truth_table();
            const int arity = static_cast<int>(n.fanins.size());
            for (int i = 0; i < arity; ++i) {
                const Signal s = map_[n.fanins[static_cast<std::size_t>(i)]];
                if (builder_.is_const(s, false)) table = table.cofactor(i, false);
                if (builder_.is_const(s, true)) table = table.cofactor(i, true);
            }
            if (table.is_const0()) {
                map_[id] = builder_.constant(false);
                return;
            }
            if (table.is_const1()) {
                map_[id] = builder_.constant(true);
                return;
            }
            // Keep only live fanins, compacting variable positions.
            std::vector<int> live_positions;
            for (int i = 0; i < arity; ++i) {
                if (table.depends_on(i)) live_positions.push_back(i);
            }
            tt::TruthTable packed =
                tt::TruthTable::zeros(static_cast<int>(live_positions.size()));
            for (std::uint64_t m = 0; m < packed.num_bits(); ++m) {
                std::uint64_t full = 0;
                for (std::size_t k = 0; k < live_positions.size(); ++k) {
                    if ((m >> k) & 1) full |= std::uint64_t{1} << live_positions[k];
                }
                packed.write_bit(m, table.get_bit(full));
            }
            std::vector<Signal> live;
            live.reserve(live_positions.size());
            for (const int pos : live_positions) {
                live.push_back(map_[n.fanins[static_cast<std::size_t>(pos)]]);
            }
            map_[id] = builder_.build_sop(live, Sop::isop(packed));
            return;
        }
        std::vector<Signal> fanins;
        fanins.reserve(n.fanins.size());
        for (const NodeId f : n.fanins) fanins.push_back(map_[f]);
        map_[id] = builder_.build_sop(fanins, n.sop);
    }

    const Network& in_;
    Network out_;
    HashedNetworkBuilder builder_;
    std::vector<Signal> map_;
};

}  // namespace

Network cleanup(const Network& in, std::vector<Signal>* node_map) {
    return Rebuilder(in).run(node_map);
}

}  // namespace bdsmaj::net
