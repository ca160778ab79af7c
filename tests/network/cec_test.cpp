#include "network/cec.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "benchgen/arith.hpp"
#include "benchgen/mcnc.hpp"
#include "benchgen/suite.hpp"
#include "decomp/flow.hpp"
#include "network/simulate.hpp"

namespace bdsmaj::net {
namespace {

Network full_adder() {
    Network net("fa");
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId cin = net.add_input("cin");
    net.add_output("sum", net.add_xor(net.add_xor(a, b), cin));
    net.add_output("cout", net.add_maj(a, b, cin));
    return net;
}

TEST(SatEquivalence, ProvesIdenticalNetworks) {
    const Network a = full_adder();
    const Network b = full_adder();
    const EquivalenceResult r = sat_equivalent(a, b);
    EXPECT_TRUE(r.equivalent);
    EXPECT_EQ(r.engine, EquivEngine::kSat);
}

TEST(SatEquivalence, RefutesWithVerifiedCounterexample) {
    Network a;
    {
        const NodeId x = a.add_input("x");
        const NodeId y = a.add_input("y");
        const NodeId z = a.add_input("z");
        a.add_output("f", a.add_and(x, y));
        a.add_output("g", a.add_maj(x, y, z));
    }
    Network b;
    {
        const NodeId x = b.add_input("x");
        const NodeId y = b.add_input("y");
        const NodeId z = b.add_input("z");
        b.add_output("f", b.add_and(x, y));
        b.add_output("g", b.add_or(b.add_and(x, y), z));  // differs from maj
    }
    const EquivalenceResult r = sat_equivalent(a, b);
    ASSERT_FALSE(r.equivalent);
    EXPECT_EQ(r.engine, EquivEngine::kSat);
    EXPECT_EQ(r.failing_output, 1);
    ASSERT_EQ(r.counterexample.size(), 3u);
    // The witness must actually distinguish the networks at that output.
    const auto va = simulate(a, r.counterexample);
    const auto vb = simulate(b, r.counterexample);
    EXPECT_NE(va[1], vb[1]);
    EXPECT_NE(r.reason.find("output"), std::string::npos);
    EXPECT_NE(r.reason.find("g"), std::string::npos);  // failing output name
}

TEST(SatEquivalence, AgreesWithBddOnSmallCircuits) {
    // Random small PLA-style pairs: SAT and BDD must return the same
    // verdict on every instance, equivalent or not.
    std::mt19937_64 rng(0xcec);
    for (int trial = 0; trial < 20; ++trial) {
        const Network x = benchgen::make_random_control(
            "x", 6, 3, 8, /*seed=*/0x1000 + static_cast<std::uint64_t>(trial));
        const Network y = benchgen::make_random_control(
            "y", 6, 3, 8,
            /*seed=*/0x1000 + static_cast<std::uint64_t>(rng() % 2 ? trial : trial + 1));
        const EquivalenceResult via_sat = sat_equivalent(x, y);
        const EquivalenceResult via_bdd = bdd_equivalent(x, y);
        ASSERT_EQ(via_sat.equivalent, via_bdd.equivalent) << "trial " << trial;
    }
}

TEST(SatEquivalence, FraigingOffStillProves) {
    const Network a = full_adder();
    const Network b = full_adder();
    CecParams params;
    params.fraig = false;
    CecStats stats;
    const EquivalenceResult r = sat_equivalent(a, b, params, &stats);
    EXPECT_TRUE(r.equivalent);
    EXPECT_EQ(stats.candidate_pairs, 0u);  // no internal queries ran
    EXPECT_GT(stats.sat_calls, 0u);        // only the output miters
}

TEST(SatEquivalence, StatsSumOverChecks) {
    // Every counter adds, so two checks into one CecStats give twice one
    // check's counts (the solver is deterministic).
    const Network input = benchgen::make_wallace_multiplier(8);
    const decomp::DecompFlowResult d = decomp::run_bdsmaj(input);
    CecStats once, twice;
    ASSERT_TRUE(sat_equivalent(input, d.network, {}, &once).equivalent);
    for (int k = 0; k < 2; ++k) {
        ASSERT_TRUE(sat_equivalent(input, d.network, {}, &twice).equivalent);
    }
    EXPECT_GT(once.conflicts, 0u);
    EXPECT_GT(once.proved_internal, 0u);
    EXPECT_EQ(twice.sim_rounds, 2 * once.sim_rounds);
    EXPECT_EQ(twice.candidate_pairs, 2 * once.candidate_pairs);
    EXPECT_EQ(twice.proved_internal, 2 * once.proved_internal);
    EXPECT_EQ(twice.refuted_internal, 2 * once.refuted_internal);
    EXPECT_EQ(twice.unknown_internal, 2 * once.unknown_internal);
    EXPECT_EQ(twice.sat_calls, 2 * once.sat_calls);
    EXPECT_EQ(twice.conflicts, 2 * once.conflicts);
}

TEST(SatEquivalence, NodelessNetworksAreEquivalent) {
    // No inputs, no outputs, no nodes: nothing to prove, and the fraiging
    // pass must not read a signature that does not exist.
    const EquivalenceResult r = sat_equivalent(Network{}, Network{});
    EXPECT_TRUE(r.equivalent);
    EXPECT_EQ(r.engine, EquivEngine::kSat);
}

TEST(SatEquivalence, DecomposedMcncCircuitsSignOffExactly) {
    // The real workload: decomposition results checked against their
    // inputs. alu2 and f51m are paper Table I circuits.
    for (const Network& input : {benchgen::make_alu2(), benchgen::make_f51m()}) {
        const decomp::DecompFlowResult r = decomp::run_bdsmaj(input);
        CecStats stats;
        const EquivalenceResult eq = sat_equivalent(input, r.network, {}, &stats);
        EXPECT_TRUE(eq.equivalent) << input.model_name() << ": " << eq.reason;
        EXPECT_GT(stats.proved_internal, 0u)
            << "fraiging found no cut-points on " << input.model_name();
    }
}

TEST(SatEquivalence, MutationFuzzingCatchesSingleGateChanges) {
    // Mutate one gate of a decomposed network; whenever the mutation
    // changes the function (confirmed independently by the BDD engine),
    // the SAT oracle must refute with a valid counterexample.
    const Network input = benchgen::make_f51m();
    const decomp::DecompFlowResult d = decomp::run_bdsmaj(input);
    std::mt19937_64 rng(0xf22);
    int refuted = 0, function_preserving = 0;
    for (int trial = 0; trial < 24; ++trial) {
        Network mutated = d.network;
        // Pick a random binary gate and flip its kind AND<->OR / XOR<->XNOR.
        std::vector<NodeId> candidates;
        for (std::size_t id = 0; id < mutated.node_count(); ++id) {
            switch (mutated.node(static_cast<NodeId>(id)).kind) {
                case GateKind::kAnd:
                case GateKind::kOr:
                case GateKind::kXor:
                case GateKind::kXnor:
                    candidates.push_back(static_cast<NodeId>(id));
                    break;
                default: break;
            }
        }
        ASSERT_FALSE(candidates.empty());
        const NodeId victim = candidates[rng() % candidates.size()];
        Node& node = mutated.node(victim);
        switch (node.kind) {
            case GateKind::kAnd: node.kind = GateKind::kOr; break;
            case GateKind::kOr: node.kind = GateKind::kAnd; break;
            case GateKind::kXor: node.kind = GateKind::kXnor; break;
            default: node.kind = GateKind::kXor; break;
        }
        const EquivalenceResult eq = sat_equivalent(input, mutated);
        // A mutation can be masked (redundant logic); either way the SAT
        // verdict must match the BDD proof (f51m has 8 inputs).
        ASSERT_EQ(eq.equivalent, bdd_equivalent(input, mutated).equivalent)
            << "trial " << trial;
        if (eq.equivalent) {
            ++function_preserving;
        } else {
            ++refuted;
            ASSERT_GE(eq.failing_output, 0);
            const auto va = simulate(input, eq.counterexample);
            const auto vb = simulate(mutated, eq.counterexample);
            ASSERT_NE(va[static_cast<std::size_t>(eq.failing_output)],
                      vb[static_cast<std::size_t>(eq.failing_output)]);
        }
    }
    // On this circuit the vast majority of single-gate flips must be
    // function-changing and caught.
    EXPECT_GT(refuted, function_preserving);
}

/// The AND of `n` inputs, as a chain of two-input gates.
Network and_chain(int n) {
    Network net(std::string("and").append(std::to_string(n)));
    NodeId acc = net.add_input("x0");
    for (int i = 1; i < n; ++i) {
        acc = net.add_and(acc, net.add_input(std::string("x").append(std::to_string(i))));
    }
    net.add_output("y", acc);
    return net;
}

TEST(CheckEquivalent, AutoDispatchesByInputCount) {
    // At most 12 inputs: exhaustive simulation proves, with no pre-pass.
    for (const Network& net : {full_adder(), and_chain(12)}) {
        const EquivalenceResult r = check_equivalent(net, net);
        EXPECT_TRUE(r.equivalent);
        EXPECT_EQ(r.engine, EquivEngine::kExhaustive) << net.inputs().size() << " inputs";
    }
    // 13 to 20 inputs: narrow control logic is proven by the guarded
    // global BDD...
    for (const Network& net :
         {and_chain(13), benchgen::make_vda() /* 17 inputs */,
          benchgen::make_random_control("rctl", 18, 12, 8, /*seed=*/0x5eed),
          and_chain(20)}) {
        const EquivalenceResult r = check_equivalent(net, decomp::run_bdsmaj(net).network);
        EXPECT_TRUE(r.equivalent);
        EXPECT_EQ(r.engine, EquivEngine::kBdd) << net.model_name();
    }
    // ... while a 20-input multiplier trips the node guard, and exhaustive
    // simulation proves it instead (a BDD verdict would read kBdd).
    {
        const Network wallace = benchgen::make_wallace_multiplier(10);
        ASSERT_EQ(wallace.inputs().size(), 20u);
        const EquivalenceResult r =
            check_equivalent(wallace, decomp::run_bdsmaj(wallace).network);
        EXPECT_TRUE(r.equivalent);
        EXPECT_EQ(r.engine, EquivEngine::kExhaustive);
    }
    // Above 20 inputs: SAT.
    {
        const Network net = and_chain(21);
        const EquivalenceResult r = check_equivalent(net, net);
        EXPECT_TRUE(r.equivalent);
        EXPECT_EQ(r.engine, EquivEngine::kSat);
    }
    // The SAT engine, called directly, proves the small pair too.
    {
        const EquivalenceResult r = sat_equivalent(full_adder(), full_adder());
        EXPECT_TRUE(r.equivalent);
        EXPECT_EQ(r.engine, EquivEngine::kSat);
    }
}

TEST(CheckEquivalent, WideCircuitsGetExactSatSignOffNotRandomDowngrade) {
    // 32 inputs: beyond any feasible global BDD. The legacy path silently
    // returned a random-simulation verdict here; the oracle must now
    // produce an exact SAT proof.
    const Network input = benchgen::make_wallace_multiplier(8);  // 16 PIs
    const Network wide = benchgen::make_array_multiplier(16);    // 32 PIs
    const decomp::DecompFlowResult d = decomp::run_bdsmaj(wide);
    const EquivalenceResult r = check_equivalent(wide, d.network);
    EXPECT_TRUE(r.equivalent);
    EXPECT_EQ(r.engine, EquivEngine::kSat);
    // A 16-input multiplier trips the BDD's node guard under the same
    // defaults and gets an exact exhaustive proof.
    const decomp::DecompFlowResult ds = decomp::run_bdsmaj(input);
    const EquivalenceResult rs = check_equivalent(input, ds.network);
    EXPECT_TRUE(rs.equivalent);
    EXPECT_EQ(rs.engine, EquivEngine::kExhaustive);
    // Where both engines are tractable, the SAT proof is exact and agrees
    // with the BDD verdict.
    const EquivalenceResult sat = sat_equivalent(input, ds.network);
    EXPECT_TRUE(sat.equivalent);
    EXPECT_EQ(sat.equivalent, bdd_equivalent(input, ds.network).equivalent);
}

TEST(CheckEquivalent, WideMismatchIsRefutedBeforeAnyProof) {
    // Complement the gate driving an output of a decomposed network too
    // wide for the BDD: the random pre-pass must refute it before the SAT
    // engine runs a single query.
    const Network input = benchgen::make_ripple_adder(16);
    ASSERT_GT(input.inputs().size(), 20u);
    Network mutated = decomp::run_bdsmaj(input).network;
    int flipped = -1;
    for (std::size_t o = 0; o < mutated.outputs().size() && flipped < 0; ++o) {
        Node& driver = mutated.node(mutated.outputs()[o].driver);
        switch (driver.kind) {
            case GateKind::kAnd: driver.kind = GateKind::kNand; break;
            case GateKind::kNand: driver.kind = GateKind::kAnd; break;
            case GateKind::kOr: driver.kind = GateKind::kNor; break;
            case GateKind::kNor: driver.kind = GateKind::kOr; break;
            case GateKind::kXor: driver.kind = GateKind::kXnor; break;
            case GateKind::kXnor: driver.kind = GateKind::kXor; break;
            default: continue;
        }
        flipped = static_cast<int>(o);
    }
    ASSERT_GE(flipped, 0) << "no output driven by a complementable gate";
    CecStats stats;
    const EquivalenceResult r = check_equivalent(input, mutated, {}, &stats);
    ASSERT_FALSE(r.equivalent);
    EXPECT_EQ(r.engine, EquivEngine::kSim);
    EXPECT_EQ(r.failing_output, flipped);
    EXPECT_EQ(stats.sat_calls, 0u);
}

TEST(CheckEquivalent, EngineNamesRoundTrip) {
    EXPECT_STREQ(equiv_engine_name(EquivEngine::kAuto), "auto");
    EXPECT_STREQ(equiv_engine_name(EquivEngine::kBdd), "bdd");
    EXPECT_STREQ(equiv_engine_name(EquivEngine::kSat), "sat");
    EXPECT_STREQ(equiv_engine_name(EquivEngine::kSim), "sim");
    EXPECT_STREQ(equiv_engine_name(EquivEngine::kExhaustive), "exhaustive");
}

TEST(CheckEquivalent, BddRefutationCarriesCounterexampleToo) {
    Network a;
    {
        const NodeId x = a.add_input("x");
        const NodeId y = a.add_input("y");
        a.add_output("f", a.add_and(x, y));
    }
    Network b;
    {
        const NodeId x = b.add_input("x");
        const NodeId y = b.add_input("y");
        b.add_output("f", b.add_xor(x, y));
    }
    const EquivalenceResult r = bdd_equivalent(a, b);
    ASSERT_FALSE(r.equivalent);
    ASSERT_EQ(r.counterexample.size(), 2u);
    EXPECT_EQ(r.failing_output, 0);
    EXPECT_NE(simulate(a, r.counterexample)[0], simulate(b, r.counterexample)[0]);
}

/// Expect `r` to be an exhaustive-simulation refutation whose
/// counterexample really distinguishes `a` and `b` at the failing output.
void expect_exhaustive_refutation(const Network& a, const Network& b,
                                  const EquivalenceResult& r) {
    ASSERT_FALSE(r.equivalent);
    EXPECT_EQ(r.engine, EquivEngine::kExhaustive);
    ASSERT_GE(r.failing_output, 0);
    ASSERT_EQ(r.counterexample.size(), a.inputs().size());
    const std::size_t o = static_cast<std::size_t>(r.failing_output);
    EXPECT_NE(simulate(a, r.counterexample)[o], simulate(b, r.counterexample)[o]);
}

/// Complement the first output driver of `net` whose kind has a dual
/// (AND <-> NAND, OR <-> NOR, XOR <-> XNOR); returns its output index.
int complement_an_output(Network& net) {
    for (std::size_t o = 0; o < net.outputs().size(); ++o) {
        Node& driver = net.node(net.outputs()[o].driver);
        switch (driver.kind) {
            case GateKind::kAnd: driver.kind = GateKind::kNand; break;
            case GateKind::kNand: driver.kind = GateKind::kAnd; break;
            case GateKind::kOr: driver.kind = GateKind::kNor; break;
            case GateKind::kNor: driver.kind = GateKind::kOr; break;
            case GateKind::kXor: driver.kind = GateKind::kXnor; break;
            case GateKind::kXnor: driver.kind = GateKind::kXor; break;
            default: continue;
        }
        return static_cast<int>(o);
    }
    return -1;
}

TEST(ExhaustiveEquivalence, AgreesWithBddOnQuickSuiteAndArithGrid) {
    // Every circuit of at most 20 inputs from the quick suite and the
    // arithmetic grid, against its decomposition and against that
    // decomposition with one output complemented: check_equivalent's
    // verdict (exhaustive up to 12 inputs or after a guard trip, BDD
    // otherwise) must equal the unguarded BDD's.
    std::vector<Network> circuits;
    for (const benchgen::BenchmarkCase& bc : benchgen::table_suite(/*quick=*/true)) {
        circuits.push_back(bc.network);
    }
    for (const int w : {8, 10}) {
        circuits.push_back(benchgen::make_array_multiplier(w));
        circuits.push_back(benchgen::make_wallace_multiplier(w));
    }
    circuits.push_back(benchgen::make_restoring_divider(8));
    for (const int r : {4, 5, 6, 7, 8, 9}) circuits.push_back(benchgen::make_sqrt(r));
    for (const int w : {8, 10, 12}) circuits.push_back(benchgen::make_reciprocal(w));
    circuits.push_back(benchgen::make_cla_adder(8));
    circuits.push_back(benchgen::make_four_operand_adder(4));
    int exhaustive = 0, bdd = 0, refuted = 0;
    for (const Network& input : circuits) {
        if (input.inputs().size() > 20) continue;
        const Network optimized = decomp::run_bdsmaj(input).network;
        const EquivalenceResult proof = check_equivalent(input, optimized);
        EXPECT_TRUE(proof.equivalent) << input.model_name() << ": " << proof.reason;
        EXPECT_EQ(proof.equivalent, bdd_equivalent(input, optimized).equivalent)
            << input.model_name();
        if (proof.engine == EquivEngine::kExhaustive) {
            ++exhaustive;
        } else if (proof.engine == EquivEngine::kBdd) {
            ++bdd;
        }

        Network mutated = optimized;
        if (complement_an_output(mutated) < 0) continue;
        const EquivalenceResult r = check_equivalent(input, mutated);
        ASSERT_EQ(r.equivalent, bdd_equivalent(input, mutated).equivalent)
            << input.model_name();
        if (!r.equivalent) {
            ++refuted;
            const std::size_t o = static_cast<std::size_t>(r.failing_output);
            EXPECT_NE(simulate(input, r.counterexample)[o],
                      simulate(mutated, r.counterexample)[o])
                << input.model_name();
        }
    }
    // Both proof engines of the narrow dispatch took part.
    EXPECT_GT(exhaustive, 10);
    EXPECT_GT(bdd, 0);
    EXPECT_GT(refuted, 10);
}

/// The AND (output 0) and the XOR (output 1) of `n` inputs; with n = 0
/// they are the constants 1 and 0. `de_morgan` builds the AND as the
/// complement of an OR of complements.
Network and_xor(int n, bool de_morgan) {
    Network net(std::string("andxor").append(std::to_string(n)));
    std::vector<NodeId> x;
    for (int i = 0; i < n; ++i) {
        x.push_back(net.add_input(std::string("x").append(std::to_string(i))));
    }
    NodeId all = de_morgan ? net.add_constant(false) : net.add_constant(true);
    NodeId parity = net.add_constant(false);
    for (const NodeId xi : x) {
        all = de_morgan ? net.add_or(all, net.add_not(xi)) : net.add_and(all, xi);
        parity = net.add_xor(parity, xi);
    }
    net.add_output("all", de_morgan ? net.add_not(all) : all);
    net.add_output("parity", parity);
    return net;
}

TEST(ExhaustiveEquivalence, WordAndChunkBoundaries) {
    // 0 and 1 inputs repeat their patterns across the word, 5 and 6 fill
    // half and all of one word, 7 needs a second chunk.
    for (const int n : {0, 1, 5, 6, 7}) {
        const Network a = and_xor(n, false);
        const EquivalenceResult proof = check_equivalent(a, and_xor(n, true));
        EXPECT_TRUE(proof.equivalent) << n << " inputs";
        EXPECT_EQ(proof.engine, EquivEngine::kExhaustive) << n << " inputs";

        // The AND replaced by constant 0: the all-ones pattern is its only
        // witness, the last bit of the last chunk.
        Network b = a;
        b.node(b.outputs()[0].driver).kind = GateKind::kConst0;
        b.node(b.outputs()[0].driver).fanins.clear();
        const EquivalenceResult r = check_equivalent(a, b);
        expect_exhaustive_refutation(a, b, r);
        EXPECT_EQ(r.failing_output, 0) << n << " inputs";
        EXPECT_EQ(r.counterexample, std::vector<bool>(static_cast<std::size_t>(n), true))
            << n << " inputs";
    }
}

TEST(ExhaustiveEquivalence, RefutesAFlippedGate) {
    // Every AND <-> OR or XOR <-> XNOR flip of a decomposed f51m (8
    // inputs): the exhaustive verdict equals the BDD's, and each
    // function-changing flip is refuted with a re-simulated witness.
    const Network input = benchgen::make_f51m();
    const Network optimized = decomp::run_bdsmaj(input).network;
    int refuted = 0;
    for (std::size_t id = 0; id < optimized.node_count(); ++id) {
        Network mutated = optimized;
        Node& node = mutated.node(static_cast<NodeId>(id));
        switch (node.kind) {
            case GateKind::kAnd: node.kind = GateKind::kOr; break;
            case GateKind::kOr: node.kind = GateKind::kAnd; break;
            case GateKind::kXor: node.kind = GateKind::kXnor; break;
            case GateKind::kXnor: node.kind = GateKind::kXor; break;
            default: continue;
        }
        const EquivalenceResult r = check_equivalent(input, mutated);
        ASSERT_EQ(r.equivalent, bdd_equivalent(input, mutated).equivalent) << "node " << id;
        if (r.equivalent) continue;
        ++refuted;
        expect_exhaustive_refutation(input, mutated, r);
    }
    EXPECT_GT(refuted, 10);
}

/// Copy of `src` in which operand `k` of the MAJ node `maj` reads its
/// complement: M(x, y, z) becomes M(x', y, z). Axiom Omega.I only allows
/// complementing all three operands together with the output, so this is
/// an unsound inverter-propagation rewrite.
Network complement_maj_operand(const Network& src, NodeId maj, std::size_t k) {
    Network out(src.model_name());
    std::vector<NodeId> map(src.node_count());
    for (std::size_t id = 0; id < src.node_count(); ++id) {
        const Node& n = src.node(static_cast<NodeId>(id));
        std::vector<NodeId> fanins;
        for (const NodeId f : n.fanins) fanins.push_back(map[f]);
        if (id == maj) fanins[k] = out.add_not(fanins[k]);
        switch (n.kind) {
            case GateKind::kInput: map[id] = out.add_input(n.name); break;
            case GateKind::kSop: map[id] = out.add_sop(fanins, n.sop); break;
            default: map[id] = out.add_gate(n.kind, fanins); break;
        }
    }
    for (const OutputPort& po : src.outputs()) out.add_output(po.name, map[po.driver]);
    return out;
}

TEST(ExhaustiveEquivalence, RefutesAnUnsoundInverterPropagation) {
    // Each operand of each MAJ node of a decomposed 4-bit ripple adder (9
    // inputs) in turn reads its complement.
    const Network input = benchgen::make_ripple_adder(4);
    const Network optimized = decomp::run_bdsmaj(input).network;
    int refuted = 0;
    for (std::size_t id = 0; id < optimized.node_count(); ++id) {
        if (optimized.node(static_cast<NodeId>(id)).kind != GateKind::kMaj) continue;
        for (std::size_t k = 0; k < 3; ++k) {
            const Network mutated =
                complement_maj_operand(optimized, static_cast<NodeId>(id), k);
            const EquivalenceResult r = check_equivalent(input, mutated);
            ASSERT_EQ(r.equivalent, bdd_equivalent(input, mutated).equivalent)
                << "node " << id << " operand " << k;
            if (r.equivalent) continue;
            ++refuted;
            expect_exhaustive_refutation(input, mutated, r);
        }
    }
    EXPECT_GT(refuted, 0);
}

TEST(ExhaustiveEquivalence, WitnessOnlyInLaterChunks) {
    // f = x9 AND x11 AND NOT x6 over 12 inputs, against constant 0: every
    // witness sets inputs 9 and 11, so the first one found sits in chunk
    // 0b101000 at bit 0, and the chunk index must map back to inputs 6-11.
    Network a("later_chunk");
    std::vector<NodeId> x;
    for (int i = 0; i < 12; ++i) {
        x.push_back(a.add_input(std::string("x").append(std::to_string(i))));
    }
    a.add_output("f", a.add_and(a.add_and(x[9], x[11]), a.add_not(x[6])));
    Network b = a;
    b.node(b.outputs()[0].driver).kind = GateKind::kConst0;
    b.node(b.outputs()[0].driver).fanins.clear();
    const EquivalenceResult r = check_equivalent(a, b);
    expect_exhaustive_refutation(a, b, r);
    std::vector<bool> expected(12, false);
    expected[9] = expected[11] = true;
    EXPECT_EQ(r.counterexample, expected);
}

TEST(ExhaustiveEquivalence, RefutesAfterAGuardTripWhatThePrePassMisses) {
    // An 8x8 multiplier (16 inputs, trips the BDD's node guard) with an
    // extra output: the AND of all inputs, against constant 0. The only
    // witness is the all-ones pattern, which the 4096 random pre-pass
    // patterns miss, so the refutation comes from exhaustive simulation.
    Network a = benchgen::make_wallace_multiplier(8);
    ASSERT_EQ(a.inputs().size(), 16u);
    Network b = a;
    NodeId all = a.inputs()[0];
    for (std::size_t i = 1; i < a.inputs().size(); ++i) all = a.add_and(all, a.inputs()[i]);
    a.add_output("all", all);
    b.add_output("all", b.add_constant(false));
    const EquivalenceResult r = check_equivalent(a, b);
    expect_exhaustive_refutation(a, b, r);
    EXPECT_EQ(r.failing_output, static_cast<int>(a.outputs().size()) - 1);
    EXPECT_EQ(r.counterexample, std::vector<bool>(16, true));
}

}  // namespace
}  // namespace bdsmaj::net
