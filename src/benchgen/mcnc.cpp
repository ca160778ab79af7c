#include "benchgen/mcnc.hpp"

#include <random>

#include "benchgen/arith.hpp"

namespace bdsmaj::benchgen {

namespace {

using net::Network;
using net::NodeId;
using Bus = std::vector<NodeId>;

Bus input_bus(Network& net, const std::string& prefix, int bits) {
    Bus bus;
    for (int i = 0; i < bits; ++i) bus.push_back(net.add_input(prefix + std::to_string(i)));
    return bus;
}

}  // namespace

Network make_alu2() {
    Network net("alu2");
    const Bus a = input_bus(net, "a", 4);
    const Bus b = input_bus(net, "b", 4);
    const NodeId op0 = net.add_input("op0");
    const NodeId op1 = net.add_input("op1");
    // Datapath: 00 add, 01 and, 10 or, 11 xor.
    Bus add_out;
    NodeId carry = net.add_constant(false);
    for (int i = 0; i < 4; ++i) {
        add_out.push_back(net.add_xor(net.add_xor(a[i], b[i]), carry));
        carry = net.add_maj(a[i], b[i], carry);
    }
    Bus result;
    for (int i = 0; i < 4; ++i) {
        const NodeId land = net.add_and(a[i], b[i]);
        const NodeId lor = net.add_or(a[i], b[i]);
        const NodeId lxor = net.add_xor(a[i], b[i]);
        const NodeId logic = net.add_mux(op1, net.add_mux(op0, lxor, lor),
                                         net.add_mux(op0, land, add_out[i]));
        result.push_back(logic);
        net.add_output(std::string("y").append(std::to_string(i)), logic);
    }
    net.add_output("cout", net.add_and(carry, net.add_not(net.add_or(op0, op1))));
    // Zero flag over the selected result.
    NodeId any = result[0];
    for (int i = 1; i < 4; ++i) any = net.add_or(any, result[i]);
    net.add_output("zero", net.add_not(any));
    return net;
}

Network make_c6288() {
    Network net = make_array_multiplier(16);
    net.set_model_name("C6288");
    return net;
}

Network make_c1355() {
    // Single-error-correcting decoder: 32 data bits + 8 syndrome inputs +
    // enable. Eight parity trees recompute check bits; the syndrome selects
    // the bit to flip (two 4->16 decoder halves ANDed, the classical
    // C499/C1355 organization).
    Network net("C1355");
    const Bus data = input_bus(net, "d", 32);
    const Bus check = input_bus(net, "c", 8);
    const NodeId enable = net.add_input("en");

    // Data bit i carries the injective syndrome code (i + 1); check bit k
    // covers the data bits whose code has bit k set. The recomputed parity
    // XOR the transmitted check bits is the syndrome.
    const auto code = [](int i) { return i + 1; };
    Bus syndrome;
    for (int k = 0; k < 8; ++k) {
        NodeId parity = check[k];
        for (int i = 0; i < 32; ++i) {
            if ((code(i) >> k) & 1) parity = net.add_xor(parity, data[i]);
        }
        syndrome.push_back(parity);
    }
    // Decode and correct: bit i flips exactly when the syndrome equals its
    // code (and the decoder is enabled).
    for (int i = 0; i < 32; ++i) {
        NodeId match = enable;
        for (int k = 0; k < 8; ++k) {
            const bool expected = ((code(i) >> k) & 1) != 0;
            match = net.add_and(match,
                                expected ? syndrome[k] : net.add_not(syndrome[k]));
        }
        net.add_output(std::string("o").append(std::to_string(i)), net.add_xor(data[i], match));
    }
    return net;
}

Network make_dalu() {
    // Dedicated ALU: masked operands, 16-bit datapath, 75 inputs total:
    // a[16] b[16] m[16] k[16] op[10] cin.
    Network net("dalu");
    const Bus a = input_bus(net, "a", 16);
    const Bus b = input_bus(net, "b", 16);
    const Bus m = input_bus(net, "m", 16);
    const Bus k = input_bus(net, "k", 16);
    const Bus op = input_bus(net, "op", 10);
    const NodeId cin = net.add_input("cin");

    Bus am, bk;
    for (int i = 0; i < 16; ++i) {
        am.push_back(net.add_and(a[i], m[i]));
        bk.push_back(net.add_and(b[i], k[i]));
    }
    NodeId carry = cin;
    for (int i = 0; i < 16; ++i) {
        const NodeId sum = net.add_xor(net.add_xor(am[i], bk[i]), carry);
        carry = net.add_maj(am[i], bk[i], carry);
        const NodeId land = net.add_and(am[i], bk[i]);
        const NodeId lor = net.add_or(am[i], bk[i]);
        const NodeId lxor = net.add_xor(am[i], bk[i]);
        // Two-level operation select with redundant op lines (dedicated
        // control the way dalu's PLA feeds its datapath).
        const NodeId sel0 = net.add_xor(op[i % 10], op[(i + 3) % 10]);
        const NodeId sel1 = net.add_or(op[(i + 5) % 10], op[(i + 7) % 10]);
        const NodeId logic = net.add_mux(sel1, net.add_mux(sel0, lxor, lor),
                                         net.add_mux(sel0, land, sum));
        net.add_output(std::string("y").append(std::to_string(i)), logic);
    }
    return net;
}

Network make_f51m() {
    // 8-in 8-out arithmetic: low byte of 4x4 multiply-add a*b + a.
    Network net("f51m");
    const Bus a = input_bus(net, "a", 4);
    const Bus b = input_bus(net, "b", 4);
    // 4x4 product.
    std::vector<Bus> rows;
    for (int j = 0; j < 4; ++j) {
        Bus row(8, net.add_constant(false));
        for (int i = 0; i < 4; ++i) row[i + j] = net.add_and(a[i], b[j]);
        rows.push_back(std::move(row));
    }
    Bus acc = rows[0];
    for (int j = 1; j < 4; ++j) {
        Bus sum;
        NodeId carry = net.add_constant(false);
        for (int i = 0; i < 8; ++i) {
            sum.push_back(net.add_xor(net.add_xor(acc[i], rows[j][i]), carry));
            carry = net.add_maj(acc[i], rows[j][i], carry);
        }
        acc = std::move(sum);
    }
    // + a (zero-extended).
    NodeId carry = net.add_constant(false);
    for (int i = 0; i < 8; ++i) {
        const NodeId ai = i < 4 ? a[i] : net.add_constant(false);
        net.add_output(std::string("z").append(std::to_string(i)),
                       net.add_xor(net.add_xor(acc[i], ai), carry));
        carry = net.add_maj(acc[i], ai, carry);
    }
    return net;
}

Network make_random_control(const std::string& name, int inputs, int outputs,
                            int products, std::uint64_t seed) {
    // Realistic control logic rather than irredundant random cubes: a layer
    // of shared predicates (pattern matches, magnitude comparators against
    // constants, parity slices) feeding OR-of-AND output planes. MCNC
    // control circuits share exactly this structure — address decode, state
    // compare, priority resolution — and it is what gives BDD-based
    // collapse something to find.
    std::mt19937_64 rng(seed);
    Network net(name);
    const Bus in = input_bus(net, "i", inputs);

    const auto random_slice = [&](int min_len, int max_len) {
        const int len = min_len + static_cast<int>(rng() % static_cast<unsigned>(
                                                             max_len - min_len + 1));
        const std::size_t start = rng() % in.size();
        Bus slice;
        for (int k = 0; k < len; ++k) slice.push_back(in[(start + k) % in.size()]);
        return slice;
    };

    Bus predicates;
    const int predicate_count = std::max(6, inputs / 3);
    for (int s = 0; s < predicate_count; ++s) {
        switch (rng() % 3) {
            case 0: {
                // Pattern match: slice == random constant.
                const Bus slice = random_slice(3, 6);
                NodeId match = net.add_constant(true);
                for (const NodeId bit : slice) {
                    match = net.add_and(match, (rng() & 1) ? bit : net.add_not(bit));
                }
                predicates.push_back(match);
                break;
            }
            case 1: {
                // Magnitude comparator: slice >= random constant, as the
                // borrow chain of (slice - c).
                const Bus slice = random_slice(3, 6);
                NodeId not_borrow = net.add_constant(true);
                for (const NodeId bit : slice) {
                    if (rng() & 1) {
                        // constant bit 1: borrow unless bit set
                        not_borrow = net.add_and(bit, not_borrow);
                    } else {
                        not_borrow = net.add_or(bit, not_borrow);
                    }
                }
                predicates.push_back(not_borrow);
                break;
            }
            default: {
                // Parity over a short slice.
                const Bus slice = random_slice(2, 4);
                NodeId parity = slice[0];
                for (std::size_t k = 1; k < slice.size(); ++k) {
                    parity = net.add_xor(parity, slice[k]);
                }
                predicates.push_back(parity);
                break;
            }
        }
    }

    for (int o = 0; o < outputs; ++o) {
        NodeId acc = net.add_constant(false);
        for (int p = 0; p < products; ++p) {
            const int lits = 2 + static_cast<int>(rng() % 2);
            NodeId term = net.add_constant(true);
            for (int l = 0; l < lits; ++l) {
                // Terms mix shared predicates with raw literals 2:1.
                NodeId s = (rng() % 3 != 0)
                               ? predicates[rng() % predicates.size()]
                               : in[rng() % in.size()];
                if (rng() & 1) s = net.add_not(s);
                term = net.add_and(term, s);
            }
            acc = net.add_or(acc, term);
        }
        net.add_output(std::string("o").append(std::to_string(o)), acc);
    }
    return net;
}

Network make_apex6() { return make_random_control("apex6", 135, 99, 2, 0xa9e6); }
Network make_vda() { return make_random_control("vda", 17, 39, 4, 0x7da); }
Network make_misex3() { return make_random_control("misex3", 14, 14, 12, 0x3153); }
Network make_seq() { return make_random_control("seq", 41, 35, 18, 0x5e9); }

Network make_bigkey() {
    // Key-mixing circuit: XOR whitening layers with 6-input S-box-style
    // covers between them; 229 inputs (128 data + 100 key + clock-enable),
    // 197 outputs, XOR-rich like the original key encryption circuit.
    std::mt19937_64 rng(0xb19e);
    Network net("bigkey");
    const Bus data = input_bus(net, "d", 128);
    const Bus key = input_bus(net, "k", 100);
    const NodeId en = net.add_input("en");
    Bus state;
    for (int i = 0; i < 128; ++i) {
        state.push_back(net.add_xor(data[i], key[i % 100]));
    }
    // Nonlinear layer: blocks of 4 mixed through MAJ/AND/OR picks.
    Bus mixed;
    for (int i = 0; i < 128; ++i) {
        const NodeId x = state[i];
        const NodeId y = state[(i + 37) % 128];
        const NodeId z = state[(i + 89) % 128];
        switch (rng() % 3) {
            case 0: mixed.push_back(net.add_maj(x, y, z)); break;
            case 1: mixed.push_back(net.add_xor(x, net.add_and(y, z))); break;
            default: mixed.push_back(net.add_xor(net.add_or(x, y), z)); break;
        }
    }
    // Second round over the mixed state.
    Bus round2;
    for (int i = 0; i < 128; ++i) {
        const NodeId x = mixed[i];
        const NodeId y = mixed[(i + 53) % 128];
        const NodeId z = key[(i * 3 + 7) % 100];
        switch (rng() % 3) {
            case 0: round2.push_back(net.add_maj(x, y, net.add_xor(z, mixed[(i + 11) % 128]))); break;
            case 1: round2.push_back(net.add_xor(x, net.add_and(y, z))); break;
            default: round2.push_back(net.add_xor(net.add_or(x, z), y)); break;
        }
    }
    // Output whitening; 197 outputs.
    for (int o = 0; o < 197; ++o) {
        const NodeId w = net.add_xor(round2[o % 128], key[(o * 7 + 13) % 100]);
        net.add_output(std::string("o").append(std::to_string(o)), net.add_and(w, en));
    }
    return net;
}

}  // namespace bdsmaj::benchgen
