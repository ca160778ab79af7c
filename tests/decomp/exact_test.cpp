// Exact small-cone synthesis backend: the compiled NPN-class table, its
// tree costs, and the de-canonicalizing replay into a GateSink.

#include "decomp/exact.hpp"

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <vector>

#include "network/builder.hpp"
#include "network/gate_tape.hpp"
#include "network/network.hpp"
#include "network/simulate.hpp"
#include "tt/npn.hpp"
#include "tt/truth_table.hpp"

namespace bdsmaj::decomp {
namespace {

using bdd::Bdd;
using bdd::Manager;
using net::Signal;

TEST(Exact, CostsAreSaneOverAllFunctions) {
    // Constants and literals are free; every 4-variable function fits in a
    // handful of gates in the {MAJ,AND,OR,XOR,MUX,NOT} alphabet.
    EXPECT_EQ(exact_gate_cost(0x0000), 0);
    EXPECT_EQ(exact_gate_cost(0xffff), 0);
    EXPECT_EQ(exact_gate_cost(0xaaaa), 0);  // x0
    EXPECT_EQ(exact_gate_cost(static_cast<std::uint16_t>(~0xaaaa)), 0);
    EXPECT_EQ(exact_gate_cost(0xaaaa & 0xcccc), 1);  // x0 & x1
    EXPECT_EQ(exact_gate_cost(0xaaaa ^ 0xcccc ^ 0xf0f0 ^ 0xff00), 3);  // parity
    int max_cost = 0;
    for (int f = 0; f < 0x8000; ++f) {
        const int c = exact_gate_cost(static_cast<std::uint16_t>(f));
        ASSERT_GE(c, 0);
        max_cost = std::max(max_cost, c);
        // NOT is free: complements always cost the same.
        ASSERT_EQ(c, exact_gate_cost(static_cast<std::uint16_t>(~f)));
    }
    EXPECT_LE(max_cost, 7);
}

TEST(Exact, EveryNpnClassStructureComputesItsClass) {
    std::vector<bool> seen(65536, false);
    int classes = 0;
    for (int f = 0; f < 0x10000; ++f) {
        const std::uint16_t cls = tt::npn_canonical(static_cast<std::uint16_t>(f));
        if (seen[cls]) continue;
        seen[cls] = true;
        ++classes;
        const ExactStructure& s = exact_structure(cls);
        ASSERT_EQ(s.canonical, cls);
        ASSERT_EQ(s.eval_tt(), cls) << "class " << cls;
        // Reconstruction dedups shared sub-functions into a DAG, so the
        // program never exceeds — and sometimes beats — the tree cost.
        ASSERT_LE(s.gate_count(), exact_gate_cost(cls));
    }
    EXPECT_EQ(classes, tt::npn_class_count());
}

/// Evaluates emitted gates as 16-bit truth tables over four leaves, whose
/// truth tables use match_cone's minterm order (bit m: input i is bit i
/// of m).
class TruthTableSink final : public net::GateSink {
public:
    [[nodiscard]] static Signal leaf(int v) {
        return Signal{static_cast<net::NodeId>(1 + v), false};
    }
    [[nodiscard]] std::uint16_t tt(Signal s) const {
        const std::uint16_t t = tts_[s.node];
        return s.complemented ? static_cast<std::uint16_t>(~t) : t;
    }
    Signal constant(bool value) override { return Signal{0, value}; }
    Signal build_and(Signal a, Signal b) override { return add(tt(a) & tt(b)); }
    Signal build_or(Signal a, Signal b) override { return add(tt(a) | tt(b)); }
    Signal build_xor(Signal a, Signal b) override { return add(tt(a) ^ tt(b)); }
    Signal build_maj(Signal a, Signal b, Signal c) override {
        return add((tt(a) & tt(b)) | (tt(a) & tt(c)) | (tt(b) & tt(c)));
    }
    Signal build_mux(Signal s, Signal t, Signal e) override {
        return add((tt(s) & tt(t)) | (~tt(s) & tt(e)));
    }

private:
    Signal add(int t) {
        tts_.push_back(static_cast<std::uint16_t>(t));
        return Signal{static_cast<net::NodeId>(tts_.size() - 1), false};
    }
    std::vector<std::uint16_t> tts_ = {0x0000, 0xaaaa, 0xcccc, 0xf0f0, 0xff00};
};

TEST(Exact, EmitReproducesEveryFourInputFunction) {
    // Every 4-input function, bound to leaves 0..3 through its own NPN
    // transform: the table must hold its class, and the emitted gates must
    // compute exactly f.
    const std::array<Signal, 4> leaves = {TruthTableSink::leaf(0), TruthTableSink::leaf(1),
                                          TruthTableSink::leaf(2), TruthTableSink::leaf(3)};
    for (int f = 0; f < 0x10000; ++f) {
        ConeMatch match;
        match.tt = static_cast<std::uint16_t>(f);
        match.canonical = tt::npn_canonical(match.tt, &match.transform);
        match.support = {0, 1, 2, 3};
        match.support_size = 4;
        TruthTableSink sink;
        const Signal root =
            emit_exact_cone(match, exact_structure(match.canonical), sink, leaves);
        ASSERT_EQ(sink.tt(root), match.tt) << "f = " << f;
    }
}

/// Build a BDD for a 16-bit function over the given manager variables.
Bdd bdd_of_tt(Manager& mgr, std::uint16_t tt, const std::vector<int>& vars) {
    Bdd f = mgr.zero();
    for (int m = 0; m < 16; ++m) {
        if (!((tt >> m) & 1)) continue;
        Bdd minterm = mgr.one();
        for (std::size_t i = 0; i < vars.size(); ++i) {
            const Bdd lit = mgr.var_bdd(vars[i]);
            minterm = mgr.apply_and(minterm, ((m >> i) & 1) ? lit : !lit);
        }
        f = mgr.apply_or(f, minterm);
    }
    return f;
}

TEST(Exact, MatchAndEmitReproducesTheConeFunction) {
    // Random 4-var functions on scattered manager variables, emitted into
    // a real network and simulated against the truth table.
    std::mt19937_64 rng(77);
    const std::vector<int> vars = {1, 3, 4, 6};  // non-contiguous support
    for (int trial = 0; trial < 40; ++trial) {
        const auto tt16 = static_cast<std::uint16_t>(rng());
        Manager mgr(7);
        const Bdd f = bdd_of_tt(mgr, tt16, vars);
        const std::optional<ConeMatch> match = match_cone(mgr, f);
        ASSERT_TRUE(match.has_value());
        EXPECT_EQ(tt::npn_canonical(match->tt), match->canonical);

        net::Network network;
        net::HashedNetworkBuilder builder(network);
        std::vector<Signal> leaves;
        for (int i = 0; i < 7; ++i) {
            leaves.push_back(
                Signal{network.add_input(std::string("x").append(std::to_string(i))), false});
        }
        const ExactStructure& structure = exact_structure(match->canonical);
        const Signal root =
            emit_exact_cone(*match, structure, builder, leaves);
        network.add_output("f", builder.realize(root));

        const tt::TruthTable expected = mgr.to_truth_table(f, 7);
        for (std::uint64_t m = 0; m < (1u << 7); ++m) {
            std::vector<bool> input;
            for (int i = 0; i < 7; ++i) input.push_back((m >> i) & 1);
            ASSERT_EQ(net::simulate(network, input)[0], expected.get_bit(m))
                << "tt " << tt16 << " minterm " << m;
        }
    }
}

TEST(Exact, SmallSupportFunctionsMatchToo) {
    // Degenerate supports (0..3 variables) pad to 4 canonical positions;
    // the padding inputs must never be referenced by a minimal structure.
    Manager mgr(5);
    const Bdd f = mgr.apply_xor(mgr.var_bdd(0), mgr.var_bdd(4));
    const std::optional<ConeMatch> match = match_cone(mgr, f);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->support_size, 2);
    EXPECT_EQ(match->support[0], 0);
    EXPECT_EQ(match->support[1], 4);

    net::Network network;
    net::HashedNetworkBuilder builder(network);
    std::vector<Signal> leaves;
    for (int i = 0; i < 5; ++i) {
        leaves.push_back(
            Signal{network.add_input(std::string("x").append(std::to_string(i))), false});
    }
    const ExactStructure& structure = exact_structure(match->canonical);
    EXPECT_EQ(structure.gate_count(), 1) << "a 2-input XOR is one gate";
    const Signal root = emit_exact_cone(*match, structure, builder, leaves);
    network.add_output("f", builder.realize(root));
    for (std::uint64_t m = 0; m < 32; ++m) {
        std::vector<bool> input;
        for (int i = 0; i < 5; ++i) input.push_back((m >> i) & 1);
        EXPECT_EQ(net::simulate(network, input)[0],
                  ((m >> 0) & 1) != ((m >> 4) & 1));
    }
}

TEST(Exact, WideSupportIsRejected) {
    Manager mgr(6);
    Bdd f = mgr.zero();
    for (int v = 0; v < 5; ++v) f = mgr.apply_xor(f, mgr.var_bdd(v));
    EXPECT_FALSE(match_cone(mgr, f).has_value());
    EXPECT_FALSE(match_cone(mgr, f, 4).has_value());
}

TEST(Exact, TapeReplayEqualsDirectEmission) {
    // The replay program must compose with the flow's tape IR: recording
    // emit_exact_cone into a GateTape and replaying it into a builder must
    // equal emitting into the builder directly.
    std::mt19937_64 rng(41);
    for (int trial = 0; trial < 10; ++trial) {
        const auto tt16 = static_cast<std::uint16_t>(rng());
        Manager mgr(4);
        const Bdd f = bdd_of_tt(mgr, tt16, {0, 1, 2, 3});
        const std::optional<ConeMatch> match = match_cone(mgr, f);
        ASSERT_TRUE(match.has_value());
        const ExactStructure& structure = exact_structure(match->canonical);

        net::Network direct_net;
        net::HashedNetworkBuilder direct(direct_net);
        std::vector<Signal> direct_leaves;
        for (int i = 0; i < 4; ++i) {
            direct_leaves.push_back(
                Signal{direct_net.add_input(std::string("x").append(std::to_string(i))), false});
        }
        direct_net.add_output("f", direct.realize(emit_exact_cone(
                                       *match, structure, direct, direct_leaves)));

        net::GateTape tape(4);
        std::vector<Signal> tape_leaves;
        for (int i = 0; i < 4; ++i) tape_leaves.push_back(tape.leaf(i));
        tape.set_root(emit_exact_cone(*match, structure, tape, tape_leaves));
        net::Network replay_net;
        net::HashedNetworkBuilder replay(replay_net);
        std::vector<Signal> replay_leaves;
        for (int i = 0; i < 4; ++i) {
            replay_leaves.push_back(
                Signal{replay_net.add_input(std::string("x").append(std::to_string(i))), false});
        }
        replay_net.add_output("f", replay.realize(tape.replay(replay, replay_leaves)));

        for (std::uint64_t m = 0; m < 16; ++m) {
            std::vector<bool> input;
            for (int i = 0; i < 4; ++i) input.push_back((m >> i) & 1);
            ASSERT_EQ(net::simulate(direct_net, input)[0],
                      net::simulate(replay_net, input)[0]);
        }
        EXPECT_EQ(direct_net.stats().total(), replay_net.stats().total());
    }
}

}  // namespace
}  // namespace bdsmaj::decomp
