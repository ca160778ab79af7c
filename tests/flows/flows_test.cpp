// Integration tests: all four Table II flows on real benchmark circuits,
// with functional sign-off and qualitative shape checks (MAJ presence,
// baseline blindness).

#include "flows/flows.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "benchgen/arith.hpp"
#include "benchgen/mcnc.hpp"
#include "benchgen/suite.hpp"
#include "decomp/strategy.hpp"
#include "mapping/certify.hpp"
#include "network/cec.hpp"
#include "network/simulate.hpp"
#include "network/sop.hpp"
#include "tt/npn.hpp"
#include "tt/truth_table.hpp"

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
    // The sign-off records which engine proved its global check (optimized
    // against the input), what the mapping certificate proved for the
    // mapped netlist, the SAT counters and the time of each stage. The
    // global check proves narrow circuits by BDD and wide ones by SAT.
    FlowOptions options;
    options.verify = true;
    const SynthesisResult narrow = flow_bdsmaj(benchgen::make_ripple_adder(4), options);
    EXPECT_EQ(narrow.signoff.bdd_checks, 1);
    EXPECT_EQ(narrow.signoff.sat_checks, 0);
    EXPECT_EQ(narrow.signoff.cec.sat_calls, 0u);
    EXPECT_GT(narrow.signoff.certified_nodes, 0);
    EXPECT_EQ(narrow.signoff.certificate_fallbacks, 0);

    const Network wide = benchgen::make_ripple_adder(12);  // 24 inputs
    const SynthesisResult r = flow_bdsmaj(wide, options);
    EXPECT_EQ(r.signoff.bdd_checks, 0);
    EXPECT_EQ(r.signoff.sat_checks, 1);
    EXPECT_GT(r.signoff.certified_nodes, 0);
    EXPECT_EQ(r.signoff.certificate_fallbacks, 0);
    // At least the per-output miters of the one global check went to the
    // solver.
    EXPECT_GE(r.signoff.cec.sat_calls, wide.outputs().size());
    EXPECT_GT(r.signoff.optimized_check_seconds, 0.0);
    EXPECT_LE(r.signoff.optimized_check_seconds + r.signoff.mapped_check_seconds,
              r.verify_seconds);
    ASSERT_TRUE(r.equivalence.has_value());
    EXPECT_EQ(r.equivalence->engine, net::EquivEngine::kSat);
    EXPECT_TRUE(r.equivalence->exact);

    // No sign-off, no stats.
    const SynthesisResult unverified = flow_bdsmaj(wide, FlowOptions{});
    EXPECT_EQ(unverified.signoff.bdd_checks + unverified.signoff.sat_checks, 0);
    EXPECT_EQ(unverified.signoff.cec.sat_calls, 0u);
    EXPECT_EQ(unverified.signoff.certified_nodes, 0);
}

TEST(Flows, SignOffObeysTheDeadline) {
    // ABC and DC cannot be interrupted, but the sign-off after them must
    // not start once the deadline has passed: no result comes back
    // unverified.
    const Network input = benchgen::make_ripple_adder(6);
    FlowOptions options;
    options.verify = true;
    options.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
    for (const char* flow : {"abc", "dc"}) {
        EXPECT_THROW((void)run_flow(input, flow, options), decomp::DeadlineExceeded)
            << flow;
    }
    SynthesisResult result = flow_abc(input);
    EXPECT_THROW(verify_synthesis_result(input, result, options), decomp::DeadlineExceeded);
    EXPECT_FALSE(result.equivalence.has_value());
}

TEST(Flows, SuiteStopsBetweenCircuitsAfterDeadline) {
    // The ABC and DC passes are not interruptible, so an expired hard
    // deadline must stop a suite at its between-circuit checkpoint, not
    // only inside the BDS decompositions.
    std::vector<Network> inputs;
    for (const char* name : {"alu2", "f51m", "dalu", "apex6"}) {
        inputs.push_back(benchgen::benchmark_by_name(name, /*quick=*/true));
    }
    FlowOptions options;
    options.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
    options.verify = false;
    for (const char* flow : {"abc", "dc", "bdsmaj"}) {
        EXPECT_THROW((void)run_suite(inputs, options, flow), decomp::DeadlineExceeded)
            << flow;
    }
}

TEST(Flows, EveryNpn4ClassThroughEveryConfiguration) {
    // Exhaustive small-function sweep: one 4-input ISOP network per NPN
    // class (constants and single literals included) through every preset
    // of both BDS flows. The 16 input patterns are the whole truth table,
    // so simulation is an exact check; the mapping certificate must be
    // complete on every run.
    std::set<std::uint16_t> classes;
    for (std::uint32_t f = 0; f <= 0xffff; ++f) {
        classes.insert(tt::npn_canonical(static_cast<std::uint16_t>(f)));
    }
    ASSERT_EQ(static_cast<int>(classes.size()), tt::npn_class_count());
    const std::vector<std::uint64_t> patterns = {0xaaaa, 0xcccc, 0xf0f0, 0xff00};
    for (const std::uint16_t table : classes) {
        const tt::TruthTable f = tt::TruthTable::from_fn(
            4, [table](std::uint64_t m) { return ((table >> m) & 1) != 0; });
        Network input("npn");
        std::vector<net::NodeId> ins;
        for (int i = 0; i < 4; ++i) {
            ins.push_back(input.add_input(std::string("x").append(std::to_string(i))));
        }
        input.add_output("f", input.add_sop(ins, net::Sop::isop(f), "f"));
        for (const decomp::Preset& preset : decomp::presets()) {
            FlowOptions options;
            options.preset = preset.name;
            for (const SynthesisResult& r :
                 {flow_bdsmaj(input, options), flow_bdspga(input, options)}) {
                const auto where = [&] {
                    return r.flow_name + " on truth table " + std::to_string(table);
                };
                EXPECT_EQ(net::simulate_words(r.optimized, patterns).at(0) & 0xffff, table)
                    << where() << ": optimized network";
                EXPECT_EQ(net::simulate_words(r.mapped.netlist, patterns).at(0) & 0xffff,
                          table)
                    << where() << ": mapped netlist";
                EXPECT_TRUE(mapping::certify_mapping(r.optimized, r.mapped).complete())
                    << where() << ": incomplete mapping certificate";
            }
        }
    }
}

}  // namespace
}  // namespace bdsmaj::flows
