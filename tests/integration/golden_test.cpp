// Golden outputs of the Table I/II reproduction: the deterministic numbers
// the perf harness (bench/bench_main.cpp) measures in its smoke
// configuration, pinned verbatim. Each table is the `smoke_reference`
// of the committed BENCH_core.json at the time the values moved here; a
// change that moves any of them changes what the tool synthesizes, so it
// must update the table on purpose (and say why), never by accident.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "benchgen/suite.hpp"
#include "decomp/flow.hpp"
#include "dynamic_sift.hpp"
#include "flows/flows.hpp"
#include "flows/service.hpp"
#include "mapping/mapper.hpp"
#include "mdom_sweep.hpp"
#include "network/cec.hpp"
#include "network/simulate.hpp"

namespace bdsmaj {
namespace {

using net::Network;

/// Printed precision of the areas in BENCH_core.json.
constexpr double kAreaTolerance = 5e-5;

std::vector<Network> quick_circuits(const std::vector<std::string>& names) {
    std::vector<Network> inputs;
    for (const std::string& name : names) {
        inputs.push_back(benchgen::benchmark_by_name(name, /*quick=*/true));
    }
    return inputs;
}

std::vector<Network> quick_mcnc() {
    std::vector<Network> inputs;
    for (benchgen::BenchmarkCase& bc : benchgen::table_suite(/*quick=*/true)) {
        if (bc.is_mcnc) inputs.push_back(std::move(bc.network));
    }
    return inputs;
}

// ---------------------------------------------------------------------------
// Table II: all four flows on the first four circuits (quick widths).
// ---------------------------------------------------------------------------

struct Table2Golden {
    long maj_gates, pga_gates, abc_gates, dc_gates;
    double maj_area;
    // BDS-MAJ EngineStats: and, or, xor, maj, mux steps, maj attempts,
    // maj rejected, literal leaves.
    int engine[8];
};

constexpr Table2Golden kTable2 = {942, 1425, 2005, 1049, 168.285,
                                  {273, 331, 361, 103, 100, 271, 168, 1342}};

struct Table2Sums {
    long maj_gates = 0, pga_gates = 0, abc_gates = 0, dc_gates = 0;
    double maj_area = 0;
    decomp::EngineStats maj_stats;

    void add(const std::vector<flows::SynthesisResult>& per_flow) {
        maj_gates += per_flow[0].mapped.gate_count;
        maj_area += per_flow[0].mapped.area_um2;
        maj_stats += per_flow[0].engine_stats;
        pga_gates += per_flow[1].mapped.gate_count;
        abc_gates += per_flow[2].mapped.gate_count;
        dc_gates += per_flow[3].mapped.gate_count;
    }
};

void expect_table2_golden(const Table2Sums& s, const std::string& what) {
    EXPECT_EQ(s.maj_gates, kTable2.maj_gates) << what;
    EXPECT_NEAR(s.maj_area, kTable2.maj_area, kAreaTolerance) << what;
    EXPECT_EQ(s.pga_gates, kTable2.pga_gates) << what;
    EXPECT_EQ(s.abc_gates, kTable2.abc_gates) << what;
    EXPECT_EQ(s.dc_gates, kTable2.dc_gates) << what;
    const decomp::EngineStats& e = s.maj_stats;
    const int engine[8] = {e.and_steps,    e.or_steps,     e.xor_steps,
                           e.maj_steps,    e.mux_steps,    e.maj_attempts,
                           e.maj_rejected, e.literal_leaves};
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(engine[i], kTable2.engine[i]) << what << " engine_stats[" << i << "]";
    }
}

TEST(Golden, Table2SmokeSuiteIsPinnedAndEquivalent) {
    std::vector<std::string> names = benchgen::benchmark_names();
    names.resize(4);
    const std::vector<Network> inputs = quick_circuits(names);

    Table2Sums serial;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const std::vector<flows::SynthesisResult> results = flows::run_all_flows(inputs[i]);
        for (const flows::SynthesisResult& r : results) {
            EXPECT_TRUE(net::check_equivalent(inputs[i], r.mapped.netlist).equivalent)
                << names[i] << " " << r.flow_name;
        }
        serial.add(results);
    }
    expect_table2_golden(serial, "serial");

    // The same circuits as four one-circuit service jobs in flight at
    // once land on the same numbers: running jobs concurrently never
    // changes a result. A private 4-thread pool gives real concurrency
    // even on a 1-core machine.
    runtime::ThreadPool pool(4);
    flows::ServiceParams sp;
    sp.pool = &pool;
    sp.max_concurrent_jobs = 4;
    flows::SynthesisService service(sp);
    const flows::SynthesisJobParams jp;  // all four flows
    std::vector<flows::SynthesisService::Submission> subs;
    for (const Network& input : inputs) subs.push_back(service.submit(input, jp));
    Table2Sums concurrent;
    for (flows::SynthesisService::Submission& sub : subs) {
        const flows::FlowResult r = sub.result.get();
        ASSERT_EQ(r.status, flows::JobStatus::kCompleted);
        concurrent.add(r.results.at(0));
    }
    expect_table2_golden(concurrent, "four concurrent service jobs");
}

// ---------------------------------------------------------------------------
// m-dominator ablation: the first two circuits of the shared sweep grid.
// ---------------------------------------------------------------------------

TEST(Golden, AblationMdomSweepIsPinnedAndEquivalent) {
    std::vector<std::string> names = bench::mdom_sweep_circuits();
    names.resize(2);
    const std::vector<Network> inputs = quick_circuits(names);
    long total_nodes = 0;
    long maj_nodes = 0;
    int runs = 0;
    for (const bench::MdomSweepConfig& cfg : bench::mdom_sweep_configs()) {
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const decomp::DecompFlowResult r =
                decomp::decompose_network(inputs[i], bench::mdom_sweep_params(cfg));
            const net::NetworkStats s = r.network.stats();
            total_nodes += s.total();
            maj_nodes += s.maj_nodes;
            ++runs;
            EXPECT_TRUE(net::check_equivalent(inputs[i], r.network).equivalent)
                << names[i] << " then>=" << cfg.then_fanin << " else>=" << cfg.else_fanin
                << " cap=" << cfg.cap;
        }
    }
    EXPECT_EQ(runs, 12);
    EXPECT_EQ(total_nodes, 1420);
    EXPECT_EQ(maj_nodes, 16);
}

// ---------------------------------------------------------------------------
// The `paper` preset over the ten MCNC circuits. Its per-circuit BLIF is
// pinned by Strategy.PaperPresetIsByteIdenticalToPreRefactorEngine; this
// pins the suite totals through mapping, and the engine-step census.
// ---------------------------------------------------------------------------

TEST(Golden, PaperPresetMcncSweepIsPinned) {
    long decomposed_gates = 0;
    long mapped_gates = 0;
    double mapped_area = 0;
    decomp::EngineStats stats;
    for (const Network& input : quick_mcnc()) {
        decomp::DecompFlowParams params;
        params.engine.preset = "paper";
        const decomp::DecompFlowResult r = decomp::decompose_network(input, params);
        decomposed_gates += r.network.stats().total();
        stats += r.engine_stats;
        const mapping::MappedResult mapped =
            mapping::map_network(r.network, flows::default_library());
        mapped_gates += mapped.gate_count;
        mapped_area += mapped.area_um2;
    }
    EXPECT_EQ(decomposed_gates, 4891);
    EXPECT_EQ(mapped_gates, 5945);
    EXPECT_NEAR(mapped_area, 880.1, kAreaTolerance);
    // and, or, xor, maj, mux, exact, generalized-xor steps, literal leaves.
    const int steps[8] = {stats.and_steps,     stats.or_steps,   stats.xor_steps,
                          stats.maj_steps,     stats.mux_steps,  stats.exact_steps,
                          stats.gen_xor_steps, stats.literal_leaves};
    constexpr int kSteps[8] = {1001, 2111, 1039, 305, 383, 0, 25, 5327};
    for (int i = 0; i < 8; ++i) EXPECT_EQ(steps[i], kSteps[i]) << "engine_steps[" << i << "]";
    EXPECT_EQ(stats.symmetric_steps, 0);
}

// ---------------------------------------------------------------------------
// Reordering: the node count one sift of the global output BDDs reaches
// fingerprints the final variable order. Faster reordering must not move
// it, and the interaction/lower-bound machinery must keep avoiding most of
// the attempted swap work.
// ---------------------------------------------------------------------------

struct ReorderGolden {
    const char* name;
    long post_sift_nodes;
};

constexpr ReorderGolden kReorder[] = {
    {"alu2", 87},   {"C6288", 8658},   {"C1355", 8904}, {"apex6", 1744},
    {"vda", 663},   {"f51m", 131},     {"misex3", 428}, {"seq", 27306},
    {"bigkey", 12664},
};

TEST(Golden, ReorderPostSiftNodeCountsArePinned) {
    std::uint64_t swaps = 0;
    std::uint64_t avoided = 0;
    for (const ReorderGolden& g : kReorder) {
        const Network network = benchgen::benchmark_by_name(g.name, /*quick=*/true);
        bdd::Manager mgr(static_cast<int>(network.inputs().size()));
        const std::vector<bdd::Bdd> roots = net::network_to_bdds(network, mgr);
        mgr.sift();
        ASSERT_FALSE(roots.empty()) << g.name;
        EXPECT_EQ(static_cast<long>(mgr.live_node_count()), g.post_sift_nodes) << g.name;
        const bdd::ReorderStats& rs = mgr.reorder_stats();
        swaps += rs.swaps;
        avoided += rs.fast_swaps + rs.lb_saved_swaps;
    }
    EXPECT_GT(2 * avoided, swaps + avoided)
        << "under half of the attempted swaps were skipped or pruned (" << avoided
        << " of " << swaps + avoided << ")";

    // dalu's global BDD explodes when built in input order, so it is built
    // with dynamic sifting, symmetry-aware as in the perf harness.
    const Network dalu = benchgen::benchmark_by_name("dalu", /*quick=*/true);
    bdd::ManagerParams params;
    params.sift_symmetry = true;
    bdd::Manager mgr(static_cast<int>(dalu.inputs().size()), params);
    std::vector<bdd::Bdd> roots;
    (void)bench::build_with_dynamic_sifting(mgr, dalu, roots);
    ASSERT_FALSE(roots.empty());
    EXPECT_EQ(static_cast<long>(mgr.live_node_count()), 9890);
}

}  // namespace
}  // namespace bdsmaj
