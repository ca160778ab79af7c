#include "sat/cnf.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "network/simulate.hpp"
#include "tt/truth_table.hpp"

namespace bdsmaj::sat {
namespace {

/// Exhaustively check that the CNF encoding of `network` computes exactly
/// what the simulator computes: for every input minterm, solving under
/// assumptions that pin the PI literals must be SAT with the output
/// literals matching simulate().
void expect_cnf_matches_simulation(const net::Network& network) {
    Solver solver;
    TseitinEncoder enc(solver);
    std::vector<Lit> pis;
    const std::vector<Lit> outs = enc.encode(network, pis);
    ASSERT_EQ(pis.size(), network.inputs().size());
    ASSERT_EQ(outs.size(), network.outputs().size());
    const int n = static_cast<int>(pis.size());
    ASSERT_LE(n, 12) << "exhaustive check wants a small input count";
    for (std::uint32_t m = 0; m < (1u << n); ++m) {
        std::vector<bool> pattern(pis.size());
        std::vector<Lit> assumptions;
        for (int i = 0; i < n; ++i) {
            pattern[static_cast<std::size_t>(i)] = ((m >> i) & 1) != 0;
            assumptions.push_back(pis[static_cast<std::size_t>(i)] ^
                                  !pattern[static_cast<std::size_t>(i)]);
        }
        ASSERT_EQ(solver.solve(assumptions), SolveResult::kSat) << "minterm " << m;
        const std::vector<bool> expected = net::simulate(network, pattern);
        for (std::size_t o = 0; o < outs.size(); ++o) {
            ASSERT_EQ(solver.model_true(outs[o]), expected[o])
                << "minterm " << m << " output " << o;
        }
    }
}

TEST(Cnf, EveryStructuralGateKindMatchesSimulation) {
    net::Network network;
    const net::NodeId a = network.add_input("a");
    const net::NodeId b = network.add_input("b");
    const net::NodeId c = network.add_input("c");
    network.add_output("and", network.add_gate(net::GateKind::kAnd, {a, b}));
    network.add_output("or", network.add_gate(net::GateKind::kOr, {a, b}));
    network.add_output("nand", network.add_gate(net::GateKind::kNand, {a, b}));
    network.add_output("nor", network.add_gate(net::GateKind::kNor, {a, b}));
    network.add_output("xor", network.add_gate(net::GateKind::kXor, {a, b}));
    network.add_output("xnor", network.add_gate(net::GateKind::kXnor, {a, b}));
    network.add_output("not", network.add_gate(net::GateKind::kNot, {a}));
    network.add_output("buf", network.add_gate(net::GateKind::kBuf, {a}));
    network.add_output("maj", network.add_gate(net::GateKind::kMaj, {a, b, c}));
    network.add_output("mux", network.add_gate(net::GateKind::kMux, {a, b, c}));
    network.add_output("c0", network.add_constant(false));
    network.add_output("c1", network.add_constant(true));
    expect_cnf_matches_simulation(network);
}

TEST(Cnf, LayeredLogicMatchesSimulation) {
    // Mixed multi-level structure: a full adder plus comparison logic.
    net::Network network;
    const net::NodeId a = network.add_input("a");
    const net::NodeId b = network.add_input("b");
    const net::NodeId cin = network.add_input("cin");
    const net::NodeId s0 = network.add_xor(network.add_xor(a, b), cin);
    const net::NodeId carry = network.add_maj(a, b, cin);
    network.add_output("sum", s0);
    network.add_output("cout", carry);
    network.add_output("both", network.add_and(s0, carry));
    network.add_output("sel", network.add_gate(net::GateKind::kMux, {s0, carry, a}));
    expect_cnf_matches_simulation(network);
}

TEST(Cnf, RandomSopCoversMatchSimulation) {
    std::mt19937_64 rng(0x50f);
    for (int trial = 0; trial < 12; ++trial) {
        const int arity = 5;
        const tt::TruthTable f = tt::TruthTable::random(arity, rng);
        net::Network network;
        std::vector<net::NodeId> ins;
        for (int i = 0; i < arity; ++i) {
            ins.push_back(network.add_input(std::string("i").append(std::to_string(i))));
        }
        network.add_output("f", network.add_sop(ins, net::Sop::isop(f), "f"));
        expect_cnf_matches_simulation(network);
    }
}

TEST(Cnf, ConstantSopCoversCollapse) {
    net::Network network;
    const net::NodeId a = network.add_input("a");
    // const-0 / const-1 covers via the Sop factory, plus a single-literal
    // cover (pass-through).
    network.add_output("zero", network.add_sop({a}, net::Sop::constant(false, 1), "z"));
    network.add_output("one", network.add_sop({a}, net::Sop::constant(true, 1), "o"));
    network.add_output("lit", network.add_sop({a}, net::Sop::literal(1, 0, false), "l"));
    expect_cnf_matches_simulation(network);
}

TEST(Cnf, SharedInputMiterProvesSelfEquivalence) {
    // Encoding the same network twice over shared PI literals and asking
    // SAT for any output difference must be UNSAT — the encoder's shared
    // input space is what the equivalence miters rely on.
    net::Network network;
    const net::NodeId a = network.add_input("a");
    const net::NodeId b = network.add_input("b");
    const net::NodeId c = network.add_input("c");
    network.add_output("f", network.add_maj(network.add_xor(a, b), c, a));

    Solver solver;
    TseitinEncoder enc(solver);
    std::vector<Lit> pis;
    const std::vector<Lit> out1 = enc.encode(network, pis);
    const std::vector<Lit> out2 = enc.encode(network, pis);
    const Lit miter = enc.encode_xor(out1[0], out2[0]);
    EXPECT_EQ(solver.solve({miter}), SolveResult::kUnsat);
    // And the complementary query is satisfiable (the function is not
    // everywhere-different from itself...).
    EXPECT_EQ(solver.solve({~miter}), SolveResult::kSat);
}

TEST(Cnf, PiLitCountMismatchThrows) {
    net::Network network;
    (void)network.add_input("a");
    (void)network.add_input("b");
    Solver solver;
    TseitinEncoder enc(solver);
    std::vector<Lit> wrong{enc.fresh()};  // one literal for two PIs
    EXPECT_THROW((void)enc.encode(network, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace bdsmaj::sat
