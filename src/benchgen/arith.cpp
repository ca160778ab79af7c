#include "benchgen/arith.hpp"

#include <cassert>
#include <string>
#include <vector>

namespace bdsmaj::benchgen {

namespace {

using net::Network;
using net::NodeId;
using Bus = std::vector<NodeId>;

Bus add_input_bus(Network& net, const std::string& prefix, int bits) {
    Bus bus;
    bus.reserve(static_cast<std::size_t>(bits));
    for (int i = 0; i < bits; ++i) bus.push_back(net.add_input(prefix + std::to_string(i)));
    return bus;
}

void add_output_bus(Network& net, const std::string& prefix, const Bus& bus) {
    for (std::size_t i = 0; i < bus.size(); ++i) {
        net.add_output(prefix + std::to_string(i), bus[i]);
    }
}

/// Full adder: returns {sum, carry}.
std::pair<NodeId, NodeId> full_adder(Network& net, NodeId a, NodeId b, NodeId c) {
    const NodeId sum = net.add_xor(net.add_xor(a, b), c);
    const NodeId carry = net.add_maj(a, b, c);
    return {sum, carry};
}

/// Ripple sum of equal-width buses; returns {sum bus, carry out}.
std::pair<Bus, NodeId> ripple_sum(Network& net, const Bus& a, const Bus& b, NodeId cin) {
    assert(a.size() == b.size());
    Bus sum;
    NodeId carry = cin;
    for (std::size_t i = 0; i < a.size(); ++i) {
        auto [s, c] = full_adder(net, a[i], b[i], carry);
        sum.push_back(s);
        carry = c;
    }
    return {sum, carry};
}

/// a - b over `bits` via a + ~b + 1; returns {difference, not_borrow}.
/// not_borrow == 1 iff a >= b.
std::pair<Bus, NodeId> subtract(Network& net, const Bus& a, const Bus& b) {
    Bus nb;
    nb.reserve(b.size());
    for (const NodeId bit : b) nb.push_back(net.add_not(bit));
    return ripple_sum(net, a, nb, net.add_constant(true));
}

/// 2:1 bus multiplexer, sel ? t : e.
Bus mux_bus(Network& net, NodeId sel, const Bus& t, const Bus& e) {
    assert(t.size() == e.size());
    Bus out;
    out.reserve(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) out.push_back(net.add_mux(sel, t[i], e[i]));
    return out;
}

/// Reduce three addends to two with one layer of full adders (carry-save).
std::pair<Bus, Bus> csa(Network& net, const Bus& x, const Bus& y, const Bus& z) {
    assert(x.size() == y.size() && y.size() == z.size());
    Bus sum, carry;
    carry.push_back(net.add_constant(false));
    for (std::size_t i = 0; i < x.size(); ++i) {
        auto [s, c] = full_adder(net, x[i], y[i], z[i]);
        sum.push_back(s);
        if (i + 1 < x.size()) carry.push_back(c);
    }
    return {sum, carry};
}

Bus zero_extend(Network& net, Bus bus, std::size_t width) {
    while (bus.size() < width) bus.push_back(net.add_constant(false));
    return bus;
}

/// Partial-product matrix of an unsigned multiplier.
std::vector<Bus> partial_products(Network& net, const Bus& a, const Bus& b,
                                  std::size_t out_width) {
    std::vector<Bus> rows;
    for (std::size_t j = 0; j < b.size(); ++j) {
        Bus row(out_width, net.add_constant(false));
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (i + j < out_width) row[i + j] = net.add_and(a[i], b[j]);
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

}  // namespace

Network make_ripple_adder(int bits) {
    Network net(std::string("rca").append(std::to_string(bits)));
    const Bus a = add_input_bus(net, "a", bits);
    const Bus b = add_input_bus(net, "b", bits);
    const NodeId cin = net.add_input("cin");
    auto [sum, carry] = ripple_sum(net, a, b, cin);
    add_output_bus(net, "s", sum);
    net.add_output("cout", carry);
    return net;
}

Network make_cla_adder(int bits) {
    // 4-bit lookahead blocks, block carries rippled through block G/P.
    Network net(std::string("cla").append(std::to_string(bits)));
    const Bus a = add_input_bus(net, "a", bits);
    const Bus b = add_input_bus(net, "b", bits);
    NodeId carry = net.add_input("cin");
    Bus sum;
    for (int base = 0; base < bits; base += 4) {
        const int width = std::min(4, bits - base);
        std::vector<NodeId> g, p;
        for (int i = 0; i < width; ++i) {
            g.push_back(net.add_and(a[base + i], b[base + i]));
            p.push_back(net.add_xor(a[base + i], b[base + i]));
        }
        // Carries inside the block in two-level lookahead form:
        // c_{i+1} = g_i + p_i g_{i-1} + ... + p_i...p_0 c_in.
        std::vector<NodeId> c{carry};
        for (int i = 0; i < width; ++i) {
            NodeId term = net.add_and(p[i], c[i]);
            c.push_back(net.add_or(g[i], term));
        }
        for (int i = 0; i < width; ++i) sum.push_back(net.add_xor(p[i], c[i]));
        carry = c[width];
    }
    add_output_bus(net, "s", sum);
    net.add_output("cout", carry);
    return net;
}

Network make_four_operand_adder(int bits) {
    Network net(std::string("add4op").append(std::to_string(bits)));
    const std::size_t width = static_cast<std::size_t>(bits) + 2;
    Bus x = zero_extend(net, add_input_bus(net, "a", bits), width);
    Bus y = zero_extend(net, add_input_bus(net, "b", bits), width);
    Bus z = zero_extend(net, add_input_bus(net, "c", bits), width);
    Bus w = zero_extend(net, add_input_bus(net, "d", bits), width);
    auto [s1, c1] = csa(net, x, y, z);
    auto [s2, c2] = csa(net, s1, c1, w);
    auto [sum, cout] = ripple_sum(net, s2, c2, net.add_constant(false));
    add_output_bus(net, "s", sum);
    net.add_output("cout", cout);
    return net;
}

Network make_array_multiplier(int bits) {
    // Row-by-row carry-propagate array: the gate structure of C6288.
    Network net(std::string("arraymult").append(std::to_string(bits)));
    const Bus a = add_input_bus(net, "a", bits);
    const Bus b = add_input_bus(net, "b", bits);
    const std::size_t width = 2 * static_cast<std::size_t>(bits);
    const std::vector<Bus> rows = partial_products(net, a, b, width);
    Bus acc = rows[0];
    for (std::size_t j = 1; j < rows.size(); ++j) {
        auto [sum, carry] = ripple_sum(net, acc, rows[j], net.add_constant(false));
        (void)carry;  // width already covers the full product
        acc = std::move(sum);
    }
    add_output_bus(net, "p", acc);
    return net;
}

Network make_wallace_multiplier(int bits) {
    Network net(std::string("wallace").append(std::to_string(bits)));
    const Bus a = add_input_bus(net, "a", bits);
    const Bus b = add_input_bus(net, "b", bits);
    const std::size_t width = 2 * static_cast<std::size_t>(bits);
    std::vector<Bus> addends = partial_products(net, a, b, width);
    // 3:2 compression tree.
    while (addends.size() > 2) {
        std::vector<Bus> next;
        std::size_t i = 0;
        for (; i + 2 < addends.size(); i += 3) {
            auto [s, c] = csa(net, addends[i], addends[i + 1], addends[i + 2]);
            next.push_back(std::move(s));
            next.push_back(std::move(c));
        }
        for (; i < addends.size(); ++i) next.push_back(std::move(addends[i]));
        addends = std::move(next);
    }
    auto [product, carry] = ripple_sum(net, addends[0], addends[1], net.add_constant(false));
    (void)carry;
    add_output_bus(net, "p", product);
    return net;
}

Network make_mac(int bits) {
    Network net(std::string("mac").append(std::to_string(bits)));
    const Bus a = add_input_bus(net, "a", bits);
    const Bus b = add_input_bus(net, "b", bits);
    // One bit wider than the product: a*b + acc reaches 2^(2*bits)+... and
    // the CSA tree discards carries out of the top position.
    const std::size_t width = 2 * static_cast<std::size_t>(bits) + 1;
    const Bus acc = add_input_bus(net, "acc", 2 * bits);
    std::vector<Bus> addends = partial_products(net, a, b, width);
    addends.push_back(zero_extend(net, acc, width));
    while (addends.size() > 2) {
        std::vector<Bus> next;
        std::size_t i = 0;
        for (; i + 2 < addends.size(); i += 3) {
            auto [s, c] = csa(net, addends[i], addends[i + 1], addends[i + 2]);
            next.push_back(std::move(s));
            next.push_back(std::move(c));
        }
        for (; i < addends.size(); ++i) next.push_back(std::move(addends[i]));
        addends = std::move(next);
    }
    auto [sum, carry] = ripple_sum(net, addends[0], addends[1], net.add_constant(false));
    (void)carry;  // total fits in 2*bits+1 bits
    add_output_bus(net, "m", Bus(sum.begin(), sum.end() - 1));
    net.add_output("mcout", sum.back());
    return net;
}

namespace {

/// Shared restoring-division datapath. The dividend may be inputs or
/// constants (for the reciprocal); `divisor` is always an input bus.
/// Produces quotient (dividend width) and final remainder (divisor width).
void restoring_division(Network& net, const Bus& dividend, const Bus& divisor,
                        Bus* quotient, Bus* remainder) {
    const std::size_t rw = divisor.size() + 1;  // remainder width
    Bus r(rw, net.add_constant(false));
    Bus d = zero_extend(net, divisor, rw);
    Bus q(dividend.size(), net.add_constant(false));
    for (std::size_t step = 0; step < dividend.size(); ++step) {
        const std::size_t bit = dividend.size() - 1 - step;
        // r = (r << 1) | dividend[bit]
        Bus shifted;
        shifted.push_back(dividend[bit]);
        for (std::size_t i = 0; i + 1 < rw; ++i) shifted.push_back(r[i]);
        auto [diff, geq] = subtract(net, shifted, d);
        r = mux_bus(net, geq, diff, shifted);
        q[bit] = geq;
    }
    *quotient = std::move(q);
    remainder->assign(r.begin(), r.begin() + static_cast<std::ptrdiff_t>(divisor.size()));
}

}  // namespace

Network make_restoring_divider(int bits) {
    Network net(std::string("div").append(std::to_string(bits)));
    const Bus n = add_input_bus(net, "n", bits);
    const Bus d = add_input_bus(net, "d", bits);
    Bus q, r;
    restoring_division(net, n, d, &q, &r);
    add_output_bus(net, "q", q);
    add_output_bus(net, "r", r);
    return net;
}

Network make_reciprocal(int bits) {
    // floor(2^(2*bits-2) / x): constant dividend 1 << (2*bits-2), x != 0.
    Network net(std::string("rev").append(std::to_string(bits)));
    const Bus x = add_input_bus(net, "x", bits);
    Bus dividend(2 * static_cast<std::size_t>(bits) - 1, net.add_constant(false));
    dividend.back() = net.add_constant(true);
    Bus q, r;
    restoring_division(net, dividend, x, &q, &r);
    // The paper's Rev reports `bits` quotient bits: the low slice.
    Bus out(q.begin(), q.begin() + bits);
    add_output_bus(net, "y", out);
    return net;
}

Network make_sqrt(int root_bits) {
    // Restoring square root: digit recurrence over bit pairs.
    Network net(std::string("sqrt").append(std::to_string(2 * root_bits)));
    const Bus a = add_input_bus(net, "a", 2 * root_bits);
    const std::size_t rw = static_cast<std::size_t>(root_bits) + 2;
    Bus r(rw, net.add_constant(false));
    Bus q;  // root bits, msb-first accumulation; q.size() grows each step
    for (int step = 0; step < root_bits; ++step) {
        const int pair = root_bits - 1 - step;
        // r = (r << 2) | a[2*pair+1 .. 2*pair]
        Bus shifted;
        shifted.push_back(a[static_cast<std::size_t>(2 * pair)]);
        shifted.push_back(a[static_cast<std::size_t>(2 * pair + 1)]);
        for (std::size_t i = 0; i + 2 < rw; ++i) shifted.push_back(r[i]);
        // trial = (q << 2) | 01
        Bus trial(rw, net.add_constant(false));
        trial[0] = net.add_constant(true);
        for (std::size_t i = 0; i < q.size() && i + 2 < rw; ++i) trial[i + 2] = q[i];
        auto [diff, geq] = subtract(net, shifted, trial);
        r = mux_bus(net, geq, diff, shifted);
        // q = (q << 1) | geq   (lsb-first storage: insert at front)
        q.insert(q.begin(), geq);
    }
    add_output_bus(net, "root", q);
    add_output_bus(net, "rem", Bus(r.begin(), r.begin() + root_bits + 1));
    return net;
}

}  // namespace bdsmaj::benchgen
