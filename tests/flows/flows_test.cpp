// Integration tests: all four Table II flows on real benchmark circuits,
// with functional sign-off and qualitative shape checks (MAJ presence,
// baseline blindness).

#include "flows/flows.hpp"

#include <gtest/gtest.h>

#include "benchgen/arith.hpp"
#include "benchgen/mcnc.hpp"
#include "network/simulate.hpp"

namespace bdsmaj::flows {
namespace {

using net::Network;

void expect_flow_correct(const SynthesisResult& r, const Network& input) {
    EXPECT_TRUE(net::check_equivalent(input, r.optimized).equivalent)
        << r.flow_name << ": optimized network differs";
    EXPECT_TRUE(net::check_equivalent(input, r.mapped.netlist).equivalent)
        << r.flow_name << ": mapped netlist differs";
    EXPECT_GE(r.mapped.area_um2, 0.0);
    EXPECT_GE(r.mapped.delay_ns, 0.0);
}

TEST(Flows, AllFourOnRippleAdder) {
    const Network input = benchgen::make_ripple_adder(6);
    for (const SynthesisResult& r : run_all_flows(input)) {
        expect_flow_correct(r, input);
        EXPECT_GT(r.mapped.gate_count, 0) << r.flow_name;
    }
}

TEST(Flows, BdsMajEmitsMajCellsOnCarryLogic) {
    const Network input = benchgen::make_ripple_adder(8);
    const SynthesisResult maj = flow_bdsmaj(input);
    expect_flow_correct(maj, input);
    EXPECT_GT(maj.mapped.netlist.stats().maj_nodes, 0)
        << "BDS-MAJ must keep MAJ3 cells on an adder";
}

TEST(Flows, BaselinesAreMajorityBlind) {
    const Network input = benchgen::make_ripple_adder(6);
    const SynthesisResult pga = flow_bdspga(input);
    const SynthesisResult abc = flow_abc(input);
    expect_flow_correct(pga, input);
    expect_flow_correct(abc, input);
    EXPECT_EQ(pga.mapped.netlist.stats().maj_nodes, 0);
    EXPECT_EQ(abc.mapped.netlist.stats().maj_nodes, 0);
}

TEST(Flows, BdsMajBeatsBaselinesOnDatapath) {
    // The Table II shape on a datapath circuit: BDS-MAJ strictly beats its
    // own majority-blind configuration, and stays in ABC's ballpark even at
    // this reduced width (the suite-level aggregate is checked by
    // bench/table2_synthesis at the paper's full widths).
    const Network input = benchgen::make_wallace_multiplier(6);
    const SynthesisResult maj = flow_bdsmaj(input);
    const SynthesisResult pga = flow_bdspga(input);
    const SynthesisResult abc = flow_abc(input);
    expect_flow_correct(maj, input);
    expect_flow_correct(pga, input);
    expect_flow_correct(abc, input);
    EXPECT_LT(maj.mapped.area_um2, pga.mapped.area_um2);
    EXPECT_LT(maj.mapped.area_um2, abc.mapped.area_um2 * 1.25);
}

TEST(Flows, DcProxyIsCorrectAndCompetitive) {
    const Network input = benchgen::make_cla_adder(8);
    const SynthesisResult dc = flow_dc(input);
    const SynthesisResult abc = flow_abc(input);
    expect_flow_correct(dc, input);
    // DC (best-of, higher effort) must be at least as good as plain ABC.
    EXPECT_LE(dc.mapped.area_um2, abc.mapped.area_um2 * 1.001);
}

TEST(Flows, ControlLogicAllFlowsCorrect) {
    const Network input = benchgen::make_random_control("ctl", 12, 8, 6, 77);
    for (const SynthesisResult& r : run_all_flows(input)) {
        expect_flow_correct(r, input);
    }
}

TEST(Flows, XorIntensiveCircuit) {
    const Network input = benchgen::make_c1355();
    const SynthesisResult maj = flow_bdsmaj(input);
    expect_flow_correct(maj, input);
    const auto s = maj.mapped.netlist.stats();
    EXPECT_GT(s.xor_nodes + s.xnor_nodes, 30)
        << "the SEC decoder is XOR-dominated";
}

TEST(Flows, ResultMetadataIsFilled) {
    const Network input = benchgen::make_ripple_adder(4);
    const SynthesisResult r = flow_bdsmaj(input);
    EXPECT_EQ(r.flow_name, "BDS-MAJ");
    EXPECT_GE(r.optimize_seconds, 0.0);
    EXPECT_EQ(r.optimized_stats.total(), r.optimized.stats().total());
    EXPECT_GT(r.engine_stats.maj_steps, 0);
}

TEST(Flows, SignOffKeepsItsStats) {
    // The sign-off records which engine proved each of its two checks
    // (optimized and mapped, against the input) and the SAT counters.
    // auto proves narrow circuits by BDD and wide ones by SAT.
    FlowOptions options;
    options.verify = true;
    const SynthesisResult narrow = flow_bdsmaj(benchgen::make_ripple_adder(4), options);
    EXPECT_EQ(narrow.signoff.bdd_checks, 2);
    EXPECT_EQ(narrow.signoff.sat_checks, 0);
    EXPECT_EQ(narrow.signoff.cec.sat_calls, 0u);

    const Network wide = benchgen::make_ripple_adder(12);  // 24 inputs
    const SynthesisResult r = flow_bdsmaj(wide, options);
    EXPECT_EQ(r.signoff.bdd_checks, 0);
    EXPECT_EQ(r.signoff.sat_checks, 2);
    // At least the per-output miters of both checks went to the solver.
    EXPECT_GE(r.signoff.cec.sat_calls, 2 * wide.outputs().size());
    ASSERT_TRUE(r.equivalence.has_value());
    EXPECT_EQ(r.equivalence->engine, net::EquivEngine::kSat);

    // No sign-off, no stats.
    const SynthesisResult unverified = flow_bdsmaj(wide, FlowOptions{});
    EXPECT_EQ(unverified.signoff.bdd_checks + unverified.signoff.sat_checks, 0);
    EXPECT_EQ(unverified.signoff.cec.sat_calls, 0u);
}

}  // namespace
}  // namespace bdsmaj::flows
