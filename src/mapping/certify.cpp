#include "mapping/certify.hpp"

#include <cstdint>

#include "network/simulate.hpp"

namespace bdsmaj::mapping {

namespace {

using net::GateKind;
using net::Network;
using net::NodeId;
using net::Signal;

/// Widest source node one 64-bit word can check exhaustively.
constexpr std::size_t kMaxFanins = 6;
/// Netlist nodes one local check may evaluate before it gives up; the
/// mapper emits a handful of cells per source node.
constexpr int kMaxConeNodes = 256;
/// Truth-table variable i over 6 inputs: bit m holds bit i of m.
constexpr std::uint64_t kVar[kMaxFanins] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull,
};

/// Evaluates small netlist cones over bound cut nodes, one 64-bit word
/// per node (bit m = fanin assignment m).
class LocalChecker {
public:
    explicit LocalChecker(const Network& netlist)
        : netlist_(netlist), stamp_(netlist.node_count(), 0),
          word_(netlist.node_count(), 0) {}

    /// Starts a new check: forgets every binding and evaluated word.
    void reset() {
        ++generation_;
        care_ = ~std::uint64_t{0};
    }

    /// Binds `node` to `word`. A node bound twice restricts the check to
    /// the assignments where both words agree: the node has one value, so
    /// the others cannot occur.
    void bind(NodeId node, std::uint64_t word) {
        if (stamp_[node] == generation_) {
            care_ &= ~(word_[node] ^ word);
            return;
        }
        stamp_[node] = generation_;
        word_[node] = word;
    }

    /// Evaluates the cone of `node` over the bindings; false when it reaches
    /// an unbound primary input or exceeds the size budget.
    bool eval(NodeId node) {
        budget_ = kMaxConeNodes;
        return eval_rec(node);
    }

    [[nodiscard]] std::uint64_t word(NodeId node) const { return word_[node]; }
    /// Assignments on which the bindings are consistent.
    [[nodiscard]] std::uint64_t care() const { return care_; }

    /// Proves `comp` computes the complement of `node` over node's fanins
    /// (or over the node itself, for an input).
    bool proves_complement(NodeId node, NodeId comp) {
        reset();
        const net::Node& n = netlist_.node(node);
        if (n.kind == GateKind::kInput) {
            bind(node, kVar[0]);
        } else {
            if (n.fanins.size() > kMaxFanins) return false;
            for (std::size_t k = 0; k < n.fanins.size(); ++k) bind(n.fanins[k], kVar[k]);
        }
        return eval(node) && eval(comp) && ((word(comp) ^ ~word(node)) & care_) == 0;
    }

private:
    bool eval_rec(NodeId node) {
        if (stamp_[node] == generation_) return true;
        const net::Node& n = netlist_.node(node);
        if (n.kind == GateKind::kInput || --budget_ < 0) return false;
        for (const NodeId f : n.fanins) {
            if (!eval_rec(f)) return false;
        }
        stamp_[node] = generation_;
        word_[node] = net::eval_node_word(
            n, [&](std::size_t k) { return word_[n.fanins[k]]; }, scratch_);
        return true;
    }

    const Network& netlist_;
    std::vector<std::uint32_t> stamp_;
    std::vector<std::uint64_t> word_;
    std::vector<std::uint64_t> scratch_;
    std::uint32_t generation_ = 0;
    std::uint64_t care_ = ~std::uint64_t{0};
    int budget_ = 0;
};

}  // namespace

MappingCertificate certify_mapping(const Network& source, const MappedResult& mapped) {
    MappingCertificate cert;
    const Network& netlist = mapped.netlist;
    if (mapped.node_map.size() != source.node_count() ||
        source.inputs().size() != netlist.inputs().size() ||
        source.outputs().size() != netlist.outputs().size()) {
        cert.inconclusive = 1;
        return cert;
    }
    const auto in_netlist = [&](NodeId id) { return id < netlist.node_count(); };
    LocalChecker check(netlist);

    // The complements the mapper claims, each proven before use.
    std::vector<NodeId> complement(netlist.node_count(), net::kNoNode);
    for (const auto& [node, comp] : mapped.complements) {
        if (in_netlist(node) && in_netlist(comp) && check.proves_complement(node, comp)) {
            complement[node] = comp;
        }
    }
    // Binds a proven image to the fanin variable `var`.
    const auto bind_image = [&](Signal image, std::uint64_t var) {
        const std::uint64_t w = image.complemented ? ~var : var;
        check.bind(image.node, w);
        if (complement[image.node] != net::kNoNode) check.bind(complement[image.node], ~w);
    };

    std::vector<char> proven(source.node_count(), 0);
    for (std::size_t i = 0; i < source.inputs().size(); ++i) {
        const NodeId id = source.inputs()[i];
        proven[id] = mapped.node_map[id] == Signal{netlist.inputs()[i], false};
        if (!proven[id]) ++cert.inconclusive;
    }
    std::vector<std::uint64_t> scratch;
    for (const NodeId id : source.topo_order()) {
        const net::Node& n = source.node(id);
        if (n.kind == GateKind::kInput) continue;
        const Signal image = mapped.node_map[id];
        bool ok = in_netlist(image.node) && n.fanins.size() <= kMaxFanins;
        for (std::size_t k = 0; ok && k < n.fanins.size(); ++k) {
            ok = proven[n.fanins[k]] != 0;
        }
        if (ok) {
            check.reset();
            for (std::size_t k = 0; k < n.fanins.size(); ++k) {
                bind_image(mapped.node_map[n.fanins[k]], kVar[k]);
            }
            const std::uint64_t expected = net::eval_node_word(
                n, [](std::size_t k) { return kVar[k]; }, scratch);
            ok = check.eval(image.node);
            if (ok) {
                const std::uint64_t got =
                    image.complemented ? ~check.word(image.node) : check.word(image.node);
                ok = ((got ^ expected) & check.care()) == 0;
            }
        }
        proven[id] = ok;
        if (ok) {
            ++cert.certified_nodes;
        } else {
            ++cert.inconclusive;
        }
    }
    for (std::size_t o = 0; o < source.outputs().size(); ++o) {
        const NodeId driver = source.outputs()[o].driver;
        const NodeId cell = netlist.outputs()[o].driver;
        bool ok = proven[driver] != 0 && in_netlist(cell);
        if (ok) {
            check.reset();
            bind_image(mapped.node_map[driver], kVar[0]);
            ok = check.eval(cell) && ((check.word(cell) ^ kVar[0]) & check.care()) == 0;
        }
        if (!ok) ++cert.inconclusive;
    }
    return cert;
}

}  // namespace bdsmaj::mapping
