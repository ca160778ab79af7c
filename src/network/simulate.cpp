#include "network/simulate.hpp"

#include <stdexcept>

namespace bdsmaj::net {

void simulate_words_into(const Network& network, const std::vector<NodeId>& order,
                         const std::vector<std::uint64_t>& pi_words,
                         std::vector<std::uint64_t>& value,
                         std::vector<std::uint64_t>& fanin_words) {
    value.assign(network.node_count(), 0);
    for (std::size_t i = 0; i < pi_words.size(); ++i) {
        value[network.inputs()[i]] = pi_words[i];
    }
    for (const NodeId id : order) {
        const Node& n = network.node(id);
        if (n.kind == GateKind::kInput) continue;
        value[id] = eval_node_word(
            n, [&](std::size_t k) { return value[n.fanins[k]]; }, fanin_words);
    }
}

std::vector<std::uint64_t> simulate_words(const Network& network,
                                          const std::vector<std::uint64_t>& pi_words) {
    if (pi_words.size() != network.inputs().size()) {
        throw std::invalid_argument("simulate_words: stimulus count != PI count");
    }
    const std::vector<NodeId> order = network.topo_order();
    std::vector<std::uint64_t> value, fanin_words;
    simulate_words_into(network, order, pi_words, value, fanin_words);
    std::vector<std::uint64_t> out;
    out.reserve(network.outputs().size());
    for (const OutputPort& po : network.outputs()) out.push_back(value[po.driver]);
    return out;
}

std::vector<bool> simulate(const Network& network, const std::vector<bool>& pi_values) {
    std::vector<std::uint64_t> words(pi_values.size());
    for (std::size_t i = 0; i < pi_values.size(); ++i) {
        words[i] = pi_values[i] ? ~std::uint64_t{0} : 0;
    }
    const std::vector<std::uint64_t> out_words = simulate_words(network, words);
    std::vector<bool> out(out_words.size());
    for (std::size_t i = 0; i < out_words.size(); ++i) out[i] = (out_words[i] & 1) != 0;
    return out;
}

std::vector<bdd::Bdd> network_to_bdds(const Network& network, bdd::Manager& mgr) {
    while (mgr.num_vars() < static_cast<int>(network.inputs().size())) {
        (void)mgr.new_var();
    }
    std::vector<bdd::Bdd> value(network.node_count());
    for (std::size_t i = 0; i < network.inputs().size(); ++i) {
        value[network.inputs()[i]] = mgr.var_bdd(static_cast<int>(i));
    }
    for (const NodeId id : network.topo_order()) {
        const Node& n = network.node(id);
        const auto in = [&](std::size_t k) -> const bdd::Bdd& {
            return value[n.fanins[k]];
        };
        if (n.kind != GateKind::kInput) value[id] = node_bdd(mgr, n, in);
    }
    std::vector<bdd::Bdd> outs;
    outs.reserve(network.outputs().size());
    for (const OutputPort& po : network.outputs()) outs.push_back(value[po.driver]);
    return outs;
}

}  // namespace bdsmaj::net
