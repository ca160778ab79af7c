#include "network/cec.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "benchgen/arith.hpp"
#include "benchgen/mcnc.hpp"
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
    // At most 20 inputs: the proof comes from the BDD engine; above that,
    // from the SAT engine.
    for (const Network& net : {full_adder(), and_chain(20)}) {
        const EquivalenceResult r = check_equivalent(net, net);
        EXPECT_TRUE(r.equivalent);
        EXPECT_EQ(r.engine, EquivEngine::kBdd) << net.inputs().size() << " inputs";
    }
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
    // And a small circuit still picks BDD under the same defaults.
    const decomp::DecompFlowResult ds = decomp::run_bdsmaj(input);
    const EquivalenceResult rs = check_equivalent(input, ds.network);
    EXPECT_TRUE(rs.equivalent);
    EXPECT_EQ(rs.engine, EquivEngine::kBdd);
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

}  // namespace
}  // namespace bdsmaj::net
