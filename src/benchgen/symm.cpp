#include "benchgen/symm.hpp"

#include <cassert>
#include <deque>
#include <string>
#include <utility>
#include <vector>

namespace bdsmaj::benchgen {

namespace {

using net::Network;
using net::NodeId;

std::vector<NodeId> add_inputs(Network& net, int count) {
    std::vector<NodeId> xs;
    xs.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        xs.push_back(net.add_input(std::string("x").append(std::to_string(i))));
    }
    return xs;
}

/// popcount of `xs` as a little-endian bus, by full/half-adder reduction of
/// per-weight buckets (the same ladder the SymmetricStrategy emits, here as
/// a plain structural network).
std::vector<NodeId> count_ones(Network& net, const std::vector<NodeId>& xs) {
    int num_bits = 0;
    while ((1 << num_bits) < static_cast<int>(xs.size()) + 1) ++num_bits;
    std::vector<std::deque<NodeId>> weights(static_cast<std::size_t>(num_bits));
    for (const NodeId x : xs) weights[0].push_back(x);
    std::vector<NodeId> count;
    for (int w = 0; w < num_bits; ++w) {
        std::deque<NodeId>& bucket = weights[static_cast<std::size_t>(w)];
        while (bucket.size() >= 3) {
            const NodeId a = bucket.front();
            bucket.pop_front();
            const NodeId b = bucket.front();
            bucket.pop_front();
            const NodeId c = bucket.front();
            bucket.pop_front();
            bucket.push_back(net.add_xor(net.add_xor(a, b), c));
            if (w + 1 < num_bits) {
                weights[static_cast<std::size_t>(w) + 1].push_back(net.add_maj(a, b, c));
            }
        }
        if (bucket.size() == 2) {
            const NodeId a = bucket.front();
            bucket.pop_front();
            const NodeId b = bucket.front();
            bucket.pop_front();
            bucket.push_back(net.add_xor(a, b));
            if (w + 1 < num_bits) {
                weights[static_cast<std::size_t>(w) + 1].push_back(net.add_and(a, b));
            }
        }
        count.push_back(bucket.empty() ? net.add_constant(false) : bucket.front());
    }
    return count;
}

}  // namespace

Network make_parity_tree(int inputs) {
    assert(inputs >= 1);
    Network net(std::string("parity").append(std::to_string(inputs)));
    std::vector<NodeId> layer = add_inputs(net, inputs);
    // Balanced reduction: pair up, odd wire carries to the next layer.
    while (layer.size() > 1) {
        std::vector<NodeId> next;
        for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
            next.push_back(net.add_xor(layer[i], layer[i + 1]));
        }
        if (layer.size() % 2 != 0) next.push_back(layer.back());
        layer = std::move(next);
    }
    net.add_output("p", layer.front());
    return net;
}

Network make_ones_counter(int inputs) {
    assert(inputs >= 1);
    Network net(std::string("count").append(std::to_string(inputs)));
    const std::vector<NodeId> count = count_ones(net, add_inputs(net, inputs));
    for (std::size_t i = 0; i < count.size(); ++i) {
        net.add_output(std::string("c").append(std::to_string(i)), count[i]);
    }
    return net;
}

Network make_voter(int inputs) {
    assert(inputs >= 3 && inputs % 2 == 1 && "a voter needs an odd input count");
    Network net(std::string("voter").append(std::to_string(inputs)));
    const std::vector<NodeId> count = count_ones(net, add_inputs(net, inputs));
    // out = [count >= threshold], threshold = inputs/2 + 1. LSB-to-MSB
    // prefix compare: ge_i answers "low i+1 count bits >= low i+1 threshold
    // bits", the bit being compared always the prefix MSB.
    const int threshold = inputs / 2 + 1;
    NodeId ge = net.add_constant(true);  // empty prefixes are equal
    for (std::size_t i = 0; i < count.size(); ++i) {
        ge = ((threshold >> i) & 1) != 0 ? net.add_and(count[i], ge)
                                         : net.add_or(count[i], ge);
    }
    net.add_output("v", ge);
    return net;
}

}  // namespace bdsmaj::benchgen
