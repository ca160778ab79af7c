// Reproducible BDD-core throughput harness. Emits BENCH_core.json so every
// PR has a recorded perf trajectory (see docs/performance.md).
//
// Sections:
//   * core ops   — top-level ITE / AND / XOR / MAJ calls per second over a
//                  deterministic pool of random functions (mixed cold/warm:
//                  exactly what the decomposition engine sees);
//   * reorder    — nodes per second through Rudell sifting, swap/skip/
//                  lower-bound-abort telemetry, and a post-sift node-count
//                  fingerprint per MCNC circuit (the final variable order
//                  must not drift when reordering gets faster); dalu runs
//                  through dynamic-sifting construction, timed with plain
//                  and with symmetry-aware reordering;
//   * symmetry   — symmetry-aware block sifting on symmetric-heavy
//                  circuits (parity tree, ones counter, voter): swap
//                  counts with/without symmetry, detected groups/pairs,
//                  block swaps. tools/ci.sh fails if the with-symmetry
//                  swap count stops beating the plain count by the
//                  reduction floor or if post-sift node counts diverge
//                  between the two modes;
//   * table2     — end-to-end Table II synthesis (quick widths): all four
//                  flows plus equivalence checks, the same work
//                  bench/table2_synthesis.cpp does;
//   * ablation   — the dominator-heavy m-dominator ablation sweep of
//                  bench/ablation_mdom.cpp;
//   * scaling    — the table2 suite through flows::run_suite at jobs =
//                  1/2/4 (circuit-level parallelism), with a fingerprint
//                  per level: the suite must be byte-deterministic at any
//                  thread count, and tools/ci.sh fails if it is not.
//   * service    — the table2 circuits as concurrent async jobs through
//                  flows::SynthesisService on the shared process pool;
//                  the aggregate fingerprint must equal the serial
//                  table2 run's (tools/ci.sh fails if it does not).
//   * presets    — every decomposition strategy preset over the MCNC
//                  circuits: decomposed/mapped gates, area, runtime, and
//                  an engine-step fingerprint per preset. tools/ci.sh
//                  fails on any `paper` fingerprint drift (the preset is
//                  contractually byte-identical to the published ladder)
//                  and if `exact-aggressive` stops strictly beating
//                  `paper` on mapped gates.
//   * cone_cache — the canonical cone memoization layer: decomposition
//                  wall time with the cache off, cold, and warm on the
//                  most self-similar circuits (plus two identical jobs
//                  through the service), with a BLIF-identity bit per
//                  circuit. tools/ci.sh fails if any cached run drifts
//                  from the cache-off bytes, if the C6288 cold hit rate
//                  falls below its floor, or if the cold path regresses
//                  >tolerance against the cache-off time.
//   * oracle     — the equivalence-oracle shootout: multiplier circuits
//                  (the BDD-hostile workload) decomposed once, then the
//                  result signed off by the SAT engine and — where the
//                  monolithic BDD is still tractable — by the BDD engine,
//                  with per-circuit wall times, fraiging telemetry, and a
//                  verdict fingerprint (equivalent/exact per circuit).
//                  tools/ci.sh fails on verdict drift and on a >tolerance
//                  SAT wall-time regression.
//
// Fingerprints (gate counts, EngineStats) are recorded alongside the wall
// times so that perf work can be checked to leave synthesis results
// bit-identical.
//
// Usage: bench_core [output.json]
//   BDSMAJ_BENCH_SMOKE=1  reduced iteration counts / circuit subset (CI)
//
// The default output name is deliberately NOT BENCH_core.json: the
// committed BENCH_core.json is a curated document (baseline + current +
// smoke_reference blocks) that tools/ci.sh depends on; a raw harness run
// must not clobber it. To refresh the committed file, merge a fresh run
// into the appropriate block (see docs/performance.md).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.hpp"
#include "decomp/cone_cache.hpp"
#include "mdom_sweep.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/mcnc.hpp"
#include "benchgen/suite.hpp"
#include "benchgen/symm.hpp"
#include "decomp/flow.hpp"
#include "decomp/strategy.hpp"
#include "flows/flows.hpp"
#include "flows/service.hpp"
#include "mapping/mapper.hpp"
#include "network/blif.hpp"
#include "network/cec.hpp"
#include "network/simulate.hpp"
#include "runtime/scheduler.hpp"
#include "tt/truth_table.hpp"

namespace {

using namespace bdsmaj;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

bool smoke_mode() {
    const char* env = std::getenv("BDSMAJ_BENCH_SMOKE");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// ---------------------------------------------------------------------------
// Core-operation throughput.
// ---------------------------------------------------------------------------

struct OpsResult {
    double ite_ops_per_sec = 0;
    double and_ops_per_sec = 0;
    double xor_ops_per_sec = 0;
    double maj_ops_per_sec = 0;
};

OpsResult bench_core_ops(int rounds) {
    constexpr int kVars = 12;
    constexpr int kPool = 32;
    bdd::Manager mgr(kVars);
    std::mt19937_64 rng(42);
    std::vector<bdd::Bdd> pool;
    pool.reserve(kPool);
    for (int i = 0; i < kPool; ++i) {
        pool.push_back(mgr.from_truth_table(tt::TruthTable::random(kVars, rng)));
    }

    OpsResult out;
    const auto run_pairwise = [&](auto&& op, double* result) {
        long ops = 0;
        const auto start = Clock::now();
        for (int r = 0; r < rounds; ++r) {
            for (int i = 0; i < kPool; ++i) {
                for (int j = i + 1; j < kPool; ++j) {
                    const bdd::Bdd v = op(pool[static_cast<std::size_t>(i)],
                                          pool[static_cast<std::size_t>(j)]);
                    ++ops;
                    if (!v.valid()) std::abort();
                }
            }
        }
        *result = static_cast<double>(ops) / seconds_since(start);
    };
    run_pairwise([&](const bdd::Bdd& a, const bdd::Bdd& b) { return mgr.apply_and(a, b); },
                 &out.and_ops_per_sec);
    run_pairwise([&](const bdd::Bdd& a, const bdd::Bdd& b) { return mgr.apply_xor(a, b); },
                 &out.xor_ops_per_sec);
    // Same pairwise sample size as AND/XOR (the third operand rotates), so
    // the smoke configuration is not dominated by a few cold calls.
    {
        long ops = 0;
        const auto start = Clock::now();
        for (int r = 0; r < rounds; ++r) {
            for (int i = 0; i < kPool; ++i) {
                for (int j = i + 1; j < kPool; ++j) {
                    const bdd::Bdd& f = pool[static_cast<std::size_t>(i)];
                    const bdd::Bdd& g = pool[static_cast<std::size_t>(j)];
                    const bdd::Bdd& h = pool[static_cast<std::size_t>((i + j) % kPool)];
                    const bdd::Bdd v = mgr.ite(f, g, h);
                    ++ops;
                    if (!v.valid()) std::abort();
                }
            }
        }
        out.ite_ops_per_sec = static_cast<double>(ops) / seconds_since(start);
    }
    {
        long ops = 0;
        const auto start = Clock::now();
        for (int r = 0; r < rounds; ++r) {
            for (int i = 0; i < kPool; ++i) {
                for (int j = i + 1; j < kPool; ++j) {
                    const bdd::Bdd& a = pool[static_cast<std::size_t>(i)];
                    const bdd::Bdd& b = pool[static_cast<std::size_t>(j)];
                    const bdd::Bdd& c = pool[static_cast<std::size_t>((i * 3 + j) % kPool)];
                    const bdd::Bdd v = mgr.maj(a, b, c);
                    ++ops;
                    if (!v.valid()) std::abort();
                }
            }
        }
        out.maj_ops_per_sec = static_cast<double>(ops) / seconds_since(start);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Reordering: sift throughput, swap/skip/abort telemetry, and a post-sift
// node-count fingerprint per MCNC circuit (tools/ci.sh fails on drift —
// reordering speedups must not move the orders they produce).
// ---------------------------------------------------------------------------

struct ReorderBenchResult {
    double sift_nodes_per_sec = 0;
    // Aggregate over the throughput reps AND the MCNC sweep below.
    std::uint64_t swaps = 0;
    std::uint64_t fast_swaps = 0;
    std::uint64_t lb_aborts = 0;
    std::uint64_t lb_saved_swaps = 0;
    std::uint64_t growth_aborts = 0;
    /// Fraction of attempted swap work avoided (label-only exchanges plus
    /// swaps the lower bound proved unnecessary), MCNC sweep only.
    double mcnc_skipped_or_pruned = 0;
    struct CircuitFingerprint {
        std::string name;
        long post_sift_nodes = 0;
    };
    std::vector<CircuitFingerprint> circuits;
    /// dalu, built with dynamic sifting (the only way its monolithic BDD
    /// stays tractable), timed with plain and with symmetry-aware sifting.
    struct DaluReorder {
        double plain_seconds = 0;
        double sym_seconds = 0;
        std::uint64_t plain_swaps = 0;
        std::uint64_t sym_swaps = 0;
        long post_nodes = 0;
    } dalu;
};

/// Build every output BDD of `network`, sifting whenever the live count
/// crosses a doubling threshold — the standard dynamic-reordering recipe
/// that keeps input-order-hostile circuits (dalu) from exploding before
/// their first sift. Returns total seconds spent inside sift().
double build_with_dynamic_sifting(bdd::Manager& mgr, const net::Network& network,
                                  std::vector<bdd::Bdd>& outs) {
    std::vector<bdd::Bdd> value(network.node_count());
    for (std::size_t i = 0; i < network.inputs().size(); ++i) {
        value[network.inputs()[i]] = mgr.var_bdd(static_cast<int>(i));
    }
    std::size_t threshold = 5000;
    double sift_seconds = 0;
    for (const net::NodeId id : network.topo_order()) {
        const net::Node& n = network.node(id);
        const auto in = [&](std::size_t k) -> const bdd::Bdd& {
            return value[n.fanins[k]];
        };
        switch (n.kind) {
            case net::GateKind::kInput: break;
            case net::GateKind::kConst0: value[id] = mgr.zero(); break;
            case net::GateKind::kConst1: value[id] = mgr.one(); break;
            case net::GateKind::kBuf: value[id] = in(0); break;
            case net::GateKind::kNot: value[id] = !in(0); break;
            case net::GateKind::kAnd: value[id] = mgr.apply_and(in(0), in(1)); break;
            case net::GateKind::kOr: value[id] = mgr.apply_or(in(0), in(1)); break;
            case net::GateKind::kNand: value[id] = !mgr.apply_and(in(0), in(1)); break;
            case net::GateKind::kNor: value[id] = !mgr.apply_or(in(0), in(1)); break;
            case net::GateKind::kXor: value[id] = mgr.apply_xor(in(0), in(1)); break;
            case net::GateKind::kXnor: value[id] = mgr.apply_xnor(in(0), in(1)); break;
            case net::GateKind::kMaj: value[id] = mgr.maj(in(0), in(1), in(2)); break;
            case net::GateKind::kMux: value[id] = mgr.ite(in(0), in(1), in(2)); break;
            case net::GateKind::kSop: std::abort();  // none in the bench circuits
        }
        if (mgr.live_node_count() > threshold) {
            const auto start = Clock::now();
            mgr.sift();
            sift_seconds += seconds_since(start);
            threshold = std::max(threshold, mgr.live_node_count() * 2);
        }
    }
    outs.clear();
    for (const net::OutputPort& po : network.outputs()) outs.push_back(value[po.driver]);
    return sift_seconds;
}

ReorderBenchResult bench_reorder(int reps) {
    ReorderBenchResult out;
    const auto add_stats = [&out](const bdd::ReorderStats& rs) {
        out.swaps += rs.swaps;
        out.fast_swaps += rs.fast_swaps;
        out.lb_aborts += rs.lb_aborts;
        out.lb_saved_swaps += rs.lb_saved_swaps;
        out.growth_aborts += rs.growth_aborts;
    };

    // Throughput: the historical 14-variable random-function workload, so
    // sift_nodes_per_sec stays comparable across the committed trajectory.
    {
        constexpr int kVars = 14;
        std::mt19937_64 rng(13);
        const tt::TruthTable t = tt::TruthTable::random(kVars, rng);
        double total_seconds = 0;
        long total_nodes = 0;
        for (int r = 0; r < reps; ++r) {
            bdd::Manager mgr(kVars);
            const bdd::Bdd f = mgr.from_truth_table(t);
            total_nodes += static_cast<long>(mgr.live_node_count());
            const auto start = Clock::now();
            mgr.sift();
            total_seconds += seconds_since(start);
            if (!f.valid()) std::abort();
            add_stats(mgr.reorder_stats());
        }
        out.sift_nodes_per_sec = static_cast<double>(total_nodes) / total_seconds;
    }

    // MCNC sweep: global output BDDs per circuit, sifted once; the
    // post-sift live node count fingerprints the final variable order.
    // dalu takes the separate dynamic-sifting path below — its monolithic
    // BDD explodes when built in input order (the pathology the supernode
    // partitioning exists to avoid), so a sift-free global build never
    // finishes; every other MCNC case is tractable.
    std::uint64_t mcnc_swaps = 0, mcnc_avoided = 0;
    for (const benchgen::BenchmarkCase& bc : benchgen::table_suite(/*quick=*/true)) {
        if (!bc.is_mcnc || bc.name == "dalu") continue;
        bdd::Manager mgr(static_cast<int>(bc.network.inputs().size()));
        const std::vector<bdd::Bdd> roots = net::network_to_bdds(bc.network, mgr);
        mgr.sift();
        if (roots.empty()) std::abort();
        out.circuits.push_back(
            {bc.name, static_cast<long>(mgr.live_node_count())});
        const bdd::ReorderStats& rs = mgr.reorder_stats();
        add_stats(rs);
        mcnc_swaps += rs.swaps;
        mcnc_avoided += rs.fast_swaps + rs.lb_saved_swaps;
    }
    const std::uint64_t attempted = mcnc_swaps + mcnc_avoided;
    out.mcnc_skipped_or_pruned =
        attempted == 0 ? 0.0
                       : static_cast<double>(mcnc_avoided) /
                             static_cast<double>(attempted);

    // dalu, re-admitted: dynamic sifting during construction keeps the
    // global BDD tractable, so the whole sift cost can be timed with plain
    // and with symmetry-aware reordering on an identical workload.
    {
        const net::Network dalu = benchgen::benchmark_by_name("dalu", /*quick=*/true);
        for (const bool sym : {false, true}) {
            bdd::ManagerParams params;
            params.sift_symmetry = sym;
            bdd::Manager mgr(static_cast<int>(dalu.inputs().size()), params);
            std::vector<bdd::Bdd> roots;
            const double seconds = build_with_dynamic_sifting(mgr, dalu, roots);
            if (roots.empty()) std::abort();
            const bdd::ReorderStats& rs = mgr.reorder_stats();
            add_stats(rs);
            if (sym) {
                out.dalu.sym_seconds = seconds;
                out.dalu.sym_swaps = rs.swaps;
                out.dalu.post_nodes = static_cast<long>(mgr.live_node_count());
            } else {
                out.dalu.plain_seconds = seconds;
                out.dalu.plain_swaps = rs.swaps;
            }
        }
        out.circuits.push_back({"dalu", out.dalu.post_nodes});
    }
    return out;
}

// ---------------------------------------------------------------------------
// Symmetry-aware reordering on symmetric-heavy circuits: the benchgen
// parity / ones-counter / voter generators all carry one total symmetry
// group, so block sifting should collapse almost all singleton swap work.
// tools/ci.sh fails if the with-symmetry swap count stops beating the
// plain count by the reduction floor, or if either mode's post-sift node
// count drifts between modes (symmetry must never change the result size
// on these circuits — the groups make every order equivalent).
// ---------------------------------------------------------------------------

struct SymmetryCircuitResult {
    std::string name;
    long post_nodes_plain = 0;
    long post_nodes_sym = 0;
    std::uint64_t plain_swaps = 0;
    std::uint64_t sym_swaps = 0;
    std::uint64_t block_swaps = 0;
    std::size_t groups = 0;
    std::size_t pairs = 0;
};

std::vector<SymmetryCircuitResult> bench_symmetry() {
    std::vector<SymmetryCircuitResult> out;
    const net::Network circuits[] = {benchgen::make_parity_tree(16),
                                     benchgen::make_ones_counter(12),
                                     benchgen::make_voter(13)};
    for (const net::Network& network : circuits) {
        SymmetryCircuitResult r;
        r.name = network.model_name();
        for (const bool sym : {false, true}) {
            bdd::ManagerParams params;
            params.sift_symmetry = sym;
            bdd::Manager mgr(static_cast<int>(network.inputs().size()), params);
            const std::vector<bdd::Bdd> roots = net::network_to_bdds(network, mgr);
            mgr.sift();
            if (roots.empty()) std::abort();
            const bdd::ReorderStats& rs = mgr.reorder_stats();
            if (sym) {
                r.post_nodes_sym = static_cast<long>(mgr.live_node_count());
                r.sym_swaps = rs.swaps;
                r.block_swaps = rs.sym_block_swaps;
                r.groups = rs.sym_groups;
                r.pairs = rs.sym_pairs;
            } else {
                r.post_nodes_plain = static_cast<long>(mgr.live_node_count());
                r.plain_swaps = rs.swaps;
            }
        }
        out.push_back(std::move(r));
    }
    return out;
}

// ---------------------------------------------------------------------------
// End-to-end Table II synthesis (quick widths), as table2_synthesis does.
// ---------------------------------------------------------------------------

struct Table2Result {
    double seconds = 0;
    int verified = 0;
    int circuits = 0;
    long maj_gates = 0;
    double maj_area = 0;
    long pga_gates = 0, abc_gates = 0, dc_gates = 0;
    decomp::EngineStats maj_stats;
};

Table2Result bench_table2(bool smoke) {
    std::vector<std::string> names = benchgen::benchmark_names();
    if (smoke) names.resize(4);
    std::vector<net::Network> inputs;
    for (const auto& name : names) {
        inputs.push_back(benchgen::benchmark_by_name(name, /*quick=*/true));
    }
    Table2Result out;
    out.circuits = static_cast<int>(names.size());
    const auto start = Clock::now();
    for (const net::Network& input : inputs) {
        const auto results = flows::run_all_flows(input);
        bool all_ok = true;
        for (const auto& r : results) {
            if (!net::check_equivalent(input, r.mapped.netlist, net::CecParams{.sim_rounds = 32})
                     .equivalent) {
                all_ok = false;
            }
        }
        if (all_ok) ++out.verified;
        out.maj_gates += results[0].mapped.gate_count;
        out.maj_area += results[0].mapped.area_um2;
        out.maj_stats += results[0].engine_stats;
        out.pga_gates += results[1].mapped.gate_count;
        out.abc_gates += results[2].mapped.gate_count;
        out.dc_gates += results[3].mapped.gate_count;
    }
    out.seconds = seconds_since(start);
    return out;
}

// ---------------------------------------------------------------------------
// Dominator-heavy ablation sweep, as ablation_mdom does.
// ---------------------------------------------------------------------------

struct AblationResult {
    double seconds = 0;
    long total_nodes = 0;
    long maj_nodes = 0;
    int equivalent = 0;
    int runs = 0;
};

AblationResult bench_ablation_mdom(bool smoke) {
    // Sweep definition shared with bench/ablation_mdom.cpp via
    // mdom_sweep.hpp, so the gated fingerprints track the reproduction
    // binary exactly.
    std::vector<std::string> circuits = bench::mdom_sweep_circuits();
    if (smoke) circuits.resize(2);
    std::vector<net::Network> inputs;
    for (const auto& name : circuits) {
        inputs.push_back(benchgen::benchmark_by_name(name, /*quick=*/true));
    }
    const std::vector<bench::MdomSweepConfig> configs = bench::mdom_sweep_configs();
    // Only the decomposition sweep is timed; the equivalence oracle (which
    // for multiplier benchmarks must build an intrinsically exponential
    // BDD) runs as an untimed sign-off afterwards.
    AblationResult out;
    std::vector<net::Network> results;
    const auto start = Clock::now();
    for (const bench::MdomSweepConfig& cfg : configs) {
        for (const net::Network& input : inputs) {
            decomp::DecompFlowResult r =
                decomp::decompose_network(input, bench::mdom_sweep_params(cfg));
            const net::NetworkStats s = r.network.stats();
            out.total_nodes += s.total();
            out.maj_nodes += s.maj_nodes;
            results.push_back(std::move(r.network));
            ++out.runs;
        }
    }
    out.seconds = seconds_since(start);
    std::size_t k = 0;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (const net::Network& input : inputs) {
            if (net::check_equivalent(input, results[k++], net::CecParams{.sim_rounds = 16})
                    .equivalent) {
                ++out.equivalent;
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Thread-scaling: identical work at jobs = 1/2/4, fingerprint per level.
// ---------------------------------------------------------------------------

struct SuiteFingerprint {
    long maj_gates = 0, pga_gates = 0, abc_gates = 0, dc_gates = 0;
    double maj_area = 0;

    bool operator==(const SuiteFingerprint&) const = default;
};

struct ScalingLevel {
    int jobs = 0;
    double suite_seconds = 0;  ///< run_suite over the table2 inputs
    SuiteFingerprint suite_fp;
};

struct ScalingResult {
    std::vector<ScalingLevel> levels;
    bool fingerprints_identical = true;
    double suite_speedup_4v1 = 0;
};

ScalingResult bench_thread_scaling(bool smoke) {
    std::vector<std::string> names = benchgen::benchmark_names();
    if (smoke) names.resize(4);
    std::vector<net::Network> inputs;
    for (const auto& name : names) {
        inputs.push_back(benchgen::benchmark_by_name(name, /*quick=*/true));
    }
    ScalingResult out;
    for (const int jobs : {1, 2, 4}) {
        ScalingLevel level;
        level.jobs = jobs;
        flows::FlowOptions options;
        options.jobs = jobs;
        const auto start = Clock::now();
        const auto results = flows::run_suite(inputs, options);
        level.suite_seconds = seconds_since(start);
        for (const auto& r : results) {
            level.suite_fp.maj_gates += r[0].mapped.gate_count;
            level.suite_fp.maj_area += r[0].mapped.area_um2;
            level.suite_fp.pga_gates += r[1].mapped.gate_count;
            level.suite_fp.abc_gates += r[2].mapped.gate_count;
            level.suite_fp.dc_gates += r[3].mapped.gate_count;
        }
        out.levels.push_back(level);
    }
    for (const ScalingLevel& level : out.levels) {
        if (!(level.suite_fp == out.levels[0].suite_fp)) out.fingerprints_identical = false;
    }
    out.suite_speedup_4v1 =
        out.levels[0].suite_seconds / out.levels.back().suite_seconds;
    return out;
}

// ---------------------------------------------------------------------------
// Service throughput: the table2 circuits as concurrent async jobs.
// ---------------------------------------------------------------------------

struct ServiceBenchResult {
    double seconds = 0;
    int jobs = 0;
    int completed = 0;
    int pool_threads = 0;
    SuiteFingerprint fp;
    bool matches_serial = true;
};

ServiceBenchResult bench_service(bool smoke, const Table2Result& t2) {
    std::vector<std::string> names = benchgen::benchmark_names();
    if (smoke) names.resize(4);
    std::vector<net::Network> inputs;
    for (const auto& name : names) {
        inputs.push_back(benchgen::benchmark_by_name(name, /*quick=*/true));
    }
    ServiceBenchResult out;
    out.jobs = static_cast<int>(names.size());
    out.pool_threads = runtime::global_pool_threads();
    flows::SynthesisService service;
    flows::SynthesisJobParams jp;  // all four flows, budget 1 per job —
                                   // concurrency comes from admission
    std::vector<flows::SynthesisService::Submission> subs;
    subs.reserve(inputs.size());
    const auto start = Clock::now();
    for (net::Network& input : inputs) {
        subs.push_back(service.submit(std::move(input), jp));
    }
    for (auto& sub : subs) {
        const flows::FlowResult r = sub.result.get();
        const std::vector<flows::SynthesisResult>& per_flow = r.results.at(0);
        out.fp.maj_gates += per_flow[0].mapped.gate_count;
        out.fp.maj_area += per_flow[0].mapped.area_um2;
        out.fp.pga_gates += per_flow[1].mapped.gate_count;
        out.fp.abc_gates += per_flow[2].mapped.gate_count;
        out.fp.dc_gates += per_flow[3].mapped.gate_count;
    }
    out.seconds = seconds_since(start);
    out.completed = service.stats().completed;
    SuiteFingerprint serial;
    serial.maj_gates = t2.maj_gates;
    serial.maj_area = t2.maj_area;
    serial.pga_gates = t2.pga_gates;
    serial.abc_gates = t2.abc_gates;
    serial.dc_gates = t2.dc_gates;
    out.matches_serial = out.fp == serial && out.completed == out.jobs;
    return out;
}

// ---------------------------------------------------------------------------
// Preset sweep: every strategy preset over the MCNC circuits.
// ---------------------------------------------------------------------------

struct PresetEntry {
    std::string preset;
    double seconds = 0;           ///< decomposition sweep only (timed)
    int circuits = 0;
    int equivalent = 0;           ///< untimed oracle sign-off
    long decomposed_gates = 0;
    long mapped_gates = 0;
    double mapped_area = 0;
    decomp::EngineStats stats;
};

std::vector<PresetEntry> bench_preset_sweep() {
    // All ten MCNC circuits even in smoke mode: the whole sweep takes
    // under a second, and the exact-aggressive-beats-paper gate is a
    // suite-level property (a 4-circuit subset flips it).
    std::vector<net::Network> inputs;
    for (const benchgen::BenchmarkCase& bc : benchgen::table_suite(/*quick=*/true)) {
        if (!bc.is_mcnc) continue;
        inputs.push_back(bc.network);
    }
    std::vector<PresetEntry> out;
    for (const decomp::PresetInfo& p : decomp::preset_catalog()) {
        PresetEntry entry;
        entry.preset = p.name;
        entry.circuits = static_cast<int>(inputs.size());
        std::vector<net::Network> results;
        const auto start = Clock::now();
        for (const net::Network& input : inputs) {
            decomp::DecompFlowParams params;
            params.engine.preset = p.name;
            decomp::DecompFlowResult r = decomp::decompose_network(input, params);
            entry.decomposed_gates += r.network.stats().total();
            entry.stats += r.engine_stats;
            results.push_back(std::move(r.network));
        }
        entry.seconds = seconds_since(start);
        // Mapping and the equivalence oracle run untimed, as sign-off.
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const mapping::MappedResult mapped =
                mapping::map_network(results[i], flows::default_library());
            entry.mapped_gates += mapped.gate_count;
            entry.mapped_area += mapped.area_um2;
            if (net::check_equivalent(inputs[i], results[i]).equivalent) {
                ++entry.equivalent;
            }
        }
        out.push_back(std::move(entry));
    }
    return out;
}

// ---------------------------------------------------------------------------
// Cone memoization: cache-off vs cold vs warm decomposition wall times on
// the self-similar circuits the cache exists for, plus two identical jobs
// through the SynthesisService (the cross-job warm path). The BLIF text of
// every cached run is compared byte-for-byte against the cache-off run —
// the cache must be invisible in the results.
// ---------------------------------------------------------------------------

struct ConeCacheCircuit {
    std::string name;
    double off_seconds = 0;   ///< cone_cache = false
    double cold_seconds = 0;  ///< cache cleared immediately before
    double warm_seconds = 0;  ///< repeated right after the cold run
    long long cold_hits = 0;  ///< intra-circuit hits during the cold run
    long long cold_misses = 0;
    bool matches_cache_off = true;  ///< cold AND warm BLIF == off BLIF
};

struct ConeCacheBenchResult {
    std::vector<ConeCacheCircuit> circuits;
    double service_cold_seconds = 0;
    double service_warm_seconds = 0;
    bool service_identical = true;
    long long entries = 0;
    long long bytes = 0;
};

ConeCacheBenchResult bench_cone_cache(bool smoke) {
    struct Case {
        std::string name;
        net::Network network;
    };
    std::vector<Case> cases;
    // The quick C6288 (8-bit array multiplier) is the canonical workload:
    // hundreds of full-adder cones sharing a handful of canonical forms.
    cases.push_back({"C6288", benchgen::benchmark_by_name("C6288", /*quick=*/true)});
    cases.push_back({"dalu", benchgen::benchmark_by_name("dalu", /*quick=*/true)});
    if (!smoke) {
        cases.push_back({"wallace16", benchgen::make_wallace_multiplier(16)});
    }

    ConeCacheBenchResult out;
    decomp::ConeCache& cache = decomp::ConeCache::instance();
    for (const Case& c : cases) {
        ConeCacheCircuit entry;
        entry.name = c.name;
        const auto run = [&](bool cached, double* secs) {
            decomp::DecompFlowParams params;
            params.cone_cache = cached;
            const auto start = Clock::now();
            decomp::DecompFlowResult r = decomp::decompose_network(c.network, params);
            *secs = seconds_since(start);
            return r;
        };
        const decomp::DecompFlowResult off = run(false, &entry.off_seconds);
        cache.clear();
        const decomp::DecompFlowResult cold = run(true, &entry.cold_seconds);
        entry.cold_hits = cold.engine_stats.cone_cache_hits;
        entry.cold_misses = cold.engine_stats.cone_cache_misses;
        const decomp::DecompFlowResult warm = run(true, &entry.warm_seconds);
        const std::string off_blif = net::write_blif(off.network);
        entry.matches_cache_off = off_blif == net::write_blif(cold.network) &&
                                  off_blif == net::write_blif(warm.network);
        out.circuits.push_back(std::move(entry));
    }

    // Cross-job warmth: the second identical service job rides the cache
    // the first one filled (the serving-shape win the ISSUE is about).
    // Both jobs carry the MCNC pair only: the mapping tail is uncached and
    // identical in both jobs, so keeping it small (wallace16's mapped
    // netlist is an order of magnitude larger) lets the delta measure the
    // cache rather than the mapper.
    cache.clear();
    {
        flows::SynthesisService service;
        flows::SynthesisJobParams jp;
        jp.flow = "bdsmaj";
        const auto timed_job = [&](double* secs) {
            std::vector<net::Network> inputs;
            for (const Case& c : cases) {
                if (c.name != "wallace16") inputs.push_back(c.network);
            }
            const auto start = Clock::now();
            auto sub = service.submit_suite(std::move(inputs), jp);
            const flows::FlowResult r = sub.result.get();
            *secs = seconds_since(start);
            std::string blif;
            for (const std::vector<flows::SynthesisResult>& per_input : r.results) {
                blif += net::write_blif(per_input.at(0).optimized);
            }
            return blif;
        };
        const std::string first_blif = timed_job(&out.service_cold_seconds);
        const std::string second_blif = timed_job(&out.service_warm_seconds);
        out.service_identical = first_blif == second_blif;
    }
    const decomp::ConeCacheStats cs = cache.stats();
    out.entries = cs.entries;
    out.bytes = cs.bytes;
    return out;
}

// ---------------------------------------------------------------------------
// Equivalence-oracle shootout: SAT vs BDD sign-off on multiplier circuits.
// ---------------------------------------------------------------------------

struct OracleEntry {
    std::string name;
    int inputs = 0;
    double sat_seconds = 0;
    double bdd_seconds = -1;  ///< -1: monolithic BDD intractable, not run
    bool equivalent = false;  ///< fingerprint (with `exact`): ci.sh gates drift
    bool exact = false;
    std::uint64_t proved_internal = 0;  ///< fraiging cut-points (telemetry)
    std::uint64_t sat_calls = 0;
};

std::vector<OracleEntry> bench_oracle(bool smoke) {
    // Multipliers are the canonical BDD-hostile family: their monolithic
    // BDDs are exponential in any variable order, which is exactly why the
    // old sign-off silently downgraded to random simulation above 26
    // inputs. bdd_feasible marks the widths where building the global BDD
    // is still tractable, so the shootout records a direct head-to-head
    // there and an honest "not run" elsewhere.
    struct Case {
        const char* name;
        net::Network network;
        bool bdd_feasible;
    };
    std::vector<Case> cases;
    if (smoke) {
        cases.push_back({"wallace8", benchgen::make_wallace_multiplier(8), true});
        cases.push_back({"array16", benchgen::make_array_multiplier(16), false});
    } else {
        cases.push_back({"wallace8", benchgen::make_wallace_multiplier(8), true});
        cases.push_back({"wallace12", benchgen::make_wallace_multiplier(12), true});
        cases.push_back({"wallace16", benchgen::make_wallace_multiplier(16), false});
        cases.push_back({"C6288", benchgen::make_c6288(), false});
    }
    std::vector<OracleEntry> out;
    for (Case& c : cases) {
        const decomp::DecompFlowResult d = decomp::run_bdsmaj(c.network);
        OracleEntry entry;
        entry.name = c.name;
        entry.inputs = static_cast<int>(c.network.inputs().size());
        {
            net::CecStats stats;
            const auto start = Clock::now();
            const net::EquivalenceResult eq =
                net::sat_equivalent(c.network, d.network, {}, &stats);
            entry.sat_seconds = seconds_since(start);
            entry.equivalent = eq.equivalent;
            entry.exact = eq.exact;
            entry.proved_internal = stats.proved_internal;
            entry.sat_calls = stats.sat_calls;
        }
        if (c.bdd_feasible) {
            const auto start = Clock::now();
            const net::EquivalenceResult eq = net::bdd_equivalent(c.network, d.network);
            entry.bdd_seconds = seconds_since(start);
            // Both engines must agree; a disagreement is a verdict-drift
            // failure downstream in ci.sh (fingerprint stores the SAT
            // verdict, so poison it here).
            if (eq.equivalent != entry.equivalent) entry.equivalent = false;
        }
        out.push_back(std::move(entry));
    }
    return out;
}

// ---------------------------------------------------------------------------
// Resilience: deadline shedding, graceful degradation, resource guards.
// Every check here is an exact invariant of the failure-containment layer
// (no timing comparisons), so ci.sh gates the fresh section directly
// without a committed reference.
// ---------------------------------------------------------------------------

struct ResilienceBenchResult {
    double seconds = 0;
    int shed_jobs = 0;
    int shed_deadline_exceeded = 0;  ///< must equal shed_jobs exactly
    int degraded_jobs = 0;
    int degraded_completed = 0;
    int degraded_verified = 0;
    long long degraded_supernodes = 0;
    long long guard_trips = 0;
    bool guard_equivalent = false;
    bool armed_but_idle_identical = false;
};

ResilienceBenchResult bench_resilience(bool smoke) {
    std::vector<std::string> names = benchgen::benchmark_names();
    names.resize(smoke ? 3 : 6);
    ResilienceBenchResult out;
    const auto start = Clock::now();

    // 1) Shedding is exact: every job whose deadline expired while the
    //    service was paused must be shed with kDeadlineExceeded before it
    //    ever runs — no straggler may slip through the dispatcher.
    {
        flows::SynthesisService service(
            flows::ServiceParams{.start_paused = true});
        flows::SynthesisJobParams jp;
        jp.flow = "bdsmaj";
        jp.deadline = Clock::now() + std::chrono::microseconds(500);
        std::vector<flows::SynthesisService::Submission> subs;
        for (const std::string& name : names) {
            subs.push_back(service.submit(
                benchgen::benchmark_by_name(name, /*quick=*/true), jp));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        service.resume();
        out.shed_jobs = static_cast<int>(subs.size());
        for (flows::SynthesisService::Submission& sub : subs) {
            const flows::FlowResult r = sub.result.get();
            if (r.status == flows::JobStatus::kDeadlineExceeded &&
                r.start_order == flows::FlowResult::kNoStartOrder) {
                ++out.shed_deadline_exceeded;
            }
        }
    }

    // 2) Soft budget expired on arrival: every supernode degrades down the
    //    default ladder, yet every job completes and passes its in-job
    //    equivalence sign-off — degradation trades quality, never
    //    correctness.
    {
        flows::SynthesisService service;
        flows::SynthesisJobParams jp;
        jp.flow = "bdsmaj";
        jp.soft_budget = Clock::now() + std::chrono::microseconds(10);
        jp.verify = true;
        std::vector<flows::SynthesisService::Submission> subs;
        for (const std::string& name : names) {
            subs.push_back(service.submit(
                benchgen::benchmark_by_name(name, /*quick=*/true), jp));
        }
        out.degraded_jobs = static_cast<int>(subs.size());
        for (flows::SynthesisService::Submission& sub : subs) {
            const flows::FlowResult r = sub.result.get();
            if (r.status != flows::JobStatus::kCompleted) continue;
            ++out.degraded_completed;
            out.degraded_supernodes += r.degraded_supernodes;
            const flows::SynthesisResult& sr = r.results.at(0).at(0);
            if (sr.equivalence.has_value() && sr.equivalence->equivalent) {
                ++out.degraded_verified;
            }
        }
    }

    // 3) Resource guard: an absurd live-node ceiling must trip per cone
    //    (never kill the flow) and the ladder-retried output must stay
    //    equivalent.
    {
        const net::Network input =
            benchgen::benchmark_by_name("f51m", /*quick=*/true);
        decomp::DecompFlowParams params;
        params.manager.max_live_nodes = 24;
        const decomp::DecompFlowResult r =
            decomp::decompose_network(input, params);
        out.guard_trips = r.engine_stats.resource_exhausted_cones;
        out.guard_equivalent =
            net::check_equivalent(input, r.network, net::CecParams{}).equivalent;
    }

    // 4) Fingerprint neutrality: arming the machinery without triggering
    //    it (far-future soft budget, explicit ladder) must be invisible —
    //    byte-identical BLIF to the default-parameter run.
    {
        const net::Network input =
            benchgen::benchmark_by_name("f51m", /*quick=*/true);
        decomp::DecompFlowParams plain;
        decomp::DecompFlowParams armed;
        armed.soft_budget = Clock::now() + std::chrono::hours(1);
        armed.degrade_ladder = {"paper", "shannon"};
        const std::string a =
            net::write_blif(decomp::decompose_network(input, plain).network);
        const std::string b =
            net::write_blif(decomp::decompose_network(input, armed).network);
        out.armed_but_idle_identical = a == b;
    }

    out.seconds = seconds_since(start);
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = smoke_mode();
    const std::string out_path = argc > 1 ? argv[1] : "bench_out.json";
    const int op_rounds = smoke ? 2 : 12;
    const int sift_reps = smoke ? 2 : 8;

    std::printf("bench_core: core ops (%d rounds)...\n", op_rounds);
    const OpsResult ops = bench_core_ops(op_rounds);
    std::printf("  ITE %.0f/s AND %.0f/s XOR %.0f/s MAJ %.0f/s\n",
                ops.ite_ops_per_sec, ops.and_ops_per_sec, ops.xor_ops_per_sec,
                ops.maj_ops_per_sec);

    std::printf("bench_core: reordering (%d reps + MCNC sweep)...\n", sift_reps);
    const ReorderBenchResult ro = bench_reorder(sift_reps);
    std::printf("  %.0f nodes/s, swaps %llu (fast %llu, lb-saved %llu), "
                "MCNC avoided %.0f%%\n",
                ro.sift_nodes_per_sec,
                static_cast<unsigned long long>(ro.swaps),
                static_cast<unsigned long long>(ro.fast_swaps),
                static_cast<unsigned long long>(ro.lb_saved_swaps),
                100.0 * ro.mcnc_skipped_or_pruned);
    std::printf("  dalu (dynamic sifting): plain %.3f s / %llu swaps, "
                "symmetry %.3f s / %llu swaps, %ld nodes\n",
                ro.dalu.plain_seconds,
                static_cast<unsigned long long>(ro.dalu.plain_swaps),
                ro.dalu.sym_seconds,
                static_cast<unsigned long long>(ro.dalu.sym_swaps),
                ro.dalu.post_nodes);

    std::printf("bench_core: symmetry-aware reordering (symmetric circuits)...\n");
    const std::vector<SymmetryCircuitResult> sy = bench_symmetry();
    for (const SymmetryCircuitResult& s : sy) {
        std::printf("  %-10s swaps %llu -> %llu (%zu group%s, %zu pairs, "
                    "%llu block swaps), nodes %ld/%ld\n",
                    s.name.c_str(),
                    static_cast<unsigned long long>(s.plain_swaps),
                    static_cast<unsigned long long>(s.sym_swaps), s.groups,
                    s.groups == 1 ? "" : "s", s.pairs,
                    static_cast<unsigned long long>(s.block_swaps),
                    s.post_nodes_plain, s.post_nodes_sym);
    }

    std::printf("bench_core: table2 end-to-end (quick%s)...\n",
                smoke ? ", smoke subset" : "");
    const Table2Result t2 = bench_table2(smoke);
    std::printf("  %.2f s, %d/%d verified, MAJ gates %ld\n", t2.seconds,
                t2.verified, t2.circuits, t2.maj_gates);

    std::printf("bench_core: ablation_mdom sweep%s...\n",
                smoke ? " (smoke subset)" : "");
    const AblationResult ab = bench_ablation_mdom(smoke);
    std::printf("  %.2f s, %d/%d equivalent, total %ld maj %ld\n", ab.seconds,
                ab.equivalent, ab.runs, ab.total_nodes, ab.maj_nodes);

    const unsigned hw_threads = std::thread::hardware_concurrency();
    const bool single_threaded = hw_threads <= 1;
    if (single_threaded) {
        std::printf("WARNING: this container exposes 1 hardware thread — the "
                    "thread_scaling and\n"
                    "WARNING: service_throughput numbers below measure "
                    "scheduling overhead, not\n"
                    "WARNING: speedup (fingerprint determinism is still "
                    "meaningful). Re-measure on\n"
                    "WARNING: a multi-core machine before quoting scaling "
                    "results.\n");
    }
    std::printf("bench_core: thread scaling (jobs 1/2/4, %u hw thread%s)...\n",
                hw_threads, hw_threads == 1 ? "" : "s");
    const ScalingResult sc = bench_thread_scaling(smoke);
    for (const ScalingLevel& level : sc.levels) {
        std::printf("  jobs=%d suite %.2f s\n", level.jobs, level.suite_seconds);
    }
    std::printf("  fingerprints %s, suite speedup(4v1) %.2fx\n",
                sc.fingerprints_identical ? "identical" : "DRIFTED",
                sc.suite_speedup_4v1);

    std::printf("bench_core: service throughput (%s)...\n",
                smoke ? "smoke subset" : "full suite");
    const ServiceBenchResult sv = bench_service(smoke, t2);
    std::printf("  %d jobs in %.2f s on %d pool threads, fingerprint %s\n",
                sv.jobs, sv.seconds, sv.pool_threads,
                sv.matches_serial ? "matches serial" : "DRIFTED");

    std::printf("bench_core: preset sweep (MCNC suite)...\n");
    const std::vector<PresetEntry> presets = bench_preset_sweep();
    for (const PresetEntry& p : presets) {
        std::printf("  %-18s %.2f s, decomposed %ld, mapped %ld, eq %d/%d\n",
                    p.preset.c_str(), p.seconds, p.decomposed_gates,
                    p.mapped_gates, p.equivalent, p.circuits);
    }

    std::printf("bench_core: cone memoization (off/cold/warm)...\n");
    const ConeCacheBenchResult cc = bench_cone_cache(smoke);
    for (const ConeCacheCircuit& c : cc.circuits) {
        const long long seen = c.cold_hits + c.cold_misses;
        std::printf("  %-10s off %.3f s, cold %.3f s (hit rate %.0f%%), warm "
                    "%.3f s (%.1fx), %s\n",
                    c.name.c_str(), c.off_seconds, c.cold_seconds,
                    seen > 0 ? 100.0 * static_cast<double>(c.cold_hits) /
                                   static_cast<double>(seen)
                             : 0.0,
                    c.warm_seconds,
                    c.warm_seconds > 0 ? c.cold_seconds / c.warm_seconds : 0.0,
                    c.matches_cache_off ? "bytes identical" : "DRIFTED");
    }
    std::printf("  service: cold job %.3f s, warm job %.3f s (%.1fx), %s\n",
                cc.service_cold_seconds, cc.service_warm_seconds,
                cc.service_warm_seconds > 0
                    ? cc.service_cold_seconds / cc.service_warm_seconds
                    : 0.0,
                cc.service_identical ? "bytes identical" : "DRIFTED");

    std::printf("bench_core: equivalence oracle shootout%s...\n",
                smoke ? " (smoke widths)" : "");
    const std::vector<OracleEntry> oracle = bench_oracle(smoke);
    for (const OracleEntry& o : oracle) {
        if (o.bdd_seconds >= 0) {
            std::printf("  %-10s %2d inputs: SAT %7.1f ms, BDD %8.1f ms "
                        "(%.1fx), %s\n",
                        o.name.c_str(), o.inputs, o.sat_seconds * 1e3,
                        o.bdd_seconds * 1e3, o.bdd_seconds / o.sat_seconds,
                        o.equivalent && o.exact ? "proved" : "FAILED");
        } else {
            std::printf("  %-10s %2d inputs: SAT %7.1f ms, BDD intractable, "
                        "%s\n",
                        o.name.c_str(), o.inputs, o.sat_seconds * 1e3,
                        o.equivalent && o.exact ? "proved" : "FAILED");
        }
    }

    std::printf("bench_core: resilience (shed / degrade / guard)...\n");
    const ResilienceBenchResult rs = bench_resilience(smoke);
    std::printf("  shed %d/%d, degraded jobs %d/%d verified (%lld supernodes), "
                "guard trips %lld (%s), armed-idle %s, %.2f s\n",
                rs.shed_deadline_exceeded, rs.shed_jobs, rs.degraded_verified,
                rs.degraded_jobs, rs.degraded_supernodes, rs.guard_trips,
                rs.guard_equivalent ? "equivalent" : "MISMATCH",
                rs.armed_but_idle_identical ? "identical" : "DRIFTED",
                rs.seconds);

    const bdd::CacheStats cs = [] {
        bdd::Manager mgr(10);
        std::mt19937_64 rng(7);
        bdd::Bdd acc = mgr.zero();
        for (int i = 0; i < 16; ++i) {
            acc = mgr.apply_xor(acc, mgr.from_truth_table(tt::TruthTable::random(10, rng)));
        }
        return mgr.cache_stats();
    }();

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "bench_core: cannot open %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"bdsmaj-bench-core-v12\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    // Honesty marker: on a 1-hardware-thread container the scaling and
    // service sections can only demonstrate determinism, never speedup.
    std::fprintf(f, "  \"single_threaded_container\": %s,\n",
                 single_threaded ? "true" : "false");
    std::fprintf(f, "  \"ops_per_sec\": {\n");
    std::fprintf(f, "    \"ite\": %.1f,\n", ops.ite_ops_per_sec);
    std::fprintf(f, "    \"and\": %.1f,\n", ops.and_ops_per_sec);
    std::fprintf(f, "    \"xor\": %.1f,\n", ops.xor_ops_per_sec);
    std::fprintf(f, "    \"maj\": %.1f\n", ops.maj_ops_per_sec);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"sift_nodes_per_sec\": %.1f,\n", ro.sift_nodes_per_sec);
    std::fprintf(f, "  \"reorder\": {\n");
    std::fprintf(f, "    \"sift_nodes_per_sec\": %.1f,\n", ro.sift_nodes_per_sec);
    std::fprintf(f, "    \"swaps\": %llu,\n",
                 static_cast<unsigned long long>(ro.swaps));
    std::fprintf(f, "    \"fast_swaps\": %llu,\n",
                 static_cast<unsigned long long>(ro.fast_swaps));
    std::fprintf(f, "    \"lb_aborts\": %llu,\n",
                 static_cast<unsigned long long>(ro.lb_aborts));
    std::fprintf(f, "    \"lb_saved_swaps\": %llu,\n",
                 static_cast<unsigned long long>(ro.lb_saved_swaps));
    std::fprintf(f, "    \"growth_aborts\": %llu,\n",
                 static_cast<unsigned long long>(ro.growth_aborts));
    std::fprintf(f, "    \"mcnc_skipped_or_pruned_fraction\": %.4f,\n",
                 ro.mcnc_skipped_or_pruned);
    std::fprintf(f, "    \"post_sift_nodes\": [\n");
    for (std::size_t i = 0; i < ro.circuits.size(); ++i) {
        std::fprintf(f, "      {\"name\": \"%s\", \"nodes\": %ld}%s\n",
                     ro.circuits[i].name.c_str(), ro.circuits[i].post_sift_nodes,
                     i + 1 < ro.circuits.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
    std::fprintf(f, "    \"dalu_dynamic_sift\": {\n");
    std::fprintf(f, "      \"plain_seconds\": %.4f,\n", ro.dalu.plain_seconds);
    std::fprintf(f, "      \"plain_swaps\": %llu,\n",
                 static_cast<unsigned long long>(ro.dalu.plain_swaps));
    std::fprintf(f, "      \"symmetry_seconds\": %.4f,\n", ro.dalu.sym_seconds);
    std::fprintf(f, "      \"symmetry_swaps\": %llu,\n",
                 static_cast<unsigned long long>(ro.dalu.sym_swaps));
    std::fprintf(f, "      \"post_sift_nodes\": %ld\n", ro.dalu.post_nodes);
    std::fprintf(f, "    }\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"symmetry\": {\n");
    std::fprintf(f, "    \"circuits\": [\n");
    for (std::size_t i = 0; i < sy.size(); ++i) {
        const SymmetryCircuitResult& s = sy[i];
        std::fprintf(f,
                     "      {\"name\": \"%s\", \"plain_swaps\": %llu, "
                     "\"symmetry_swaps\": %llu, \"block_swaps\": %llu, "
                     "\"groups\": %zu, \"pairs\": %zu, "
                     "\"post_sift_nodes_plain\": %ld, "
                     "\"post_sift_nodes_symmetry\": %ld}%s\n",
                     s.name.c_str(),
                     static_cast<unsigned long long>(s.plain_swaps),
                     static_cast<unsigned long long>(s.sym_swaps),
                     static_cast<unsigned long long>(s.block_swaps), s.groups,
                     s.pairs, s.post_nodes_plain, s.post_nodes_sym,
                     i + 1 < sy.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"table2_synthesis\": {\n");
    std::fprintf(f, "    \"seconds\": %.3f,\n", t2.seconds);
    std::fprintf(f, "    \"circuits\": %d,\n", t2.circuits);
    std::fprintf(f, "    \"verified\": %d,\n", t2.verified);
    std::fprintf(f, "    \"fingerprint\": {\n");
    std::fprintf(f, "      \"maj_gates\": %ld,\n", t2.maj_gates);
    std::fprintf(f, "      \"maj_area\": %.4f,\n", t2.maj_area);
    std::fprintf(f, "      \"pga_gates\": %ld,\n", t2.pga_gates);
    std::fprintf(f, "      \"abc_gates\": %ld,\n", t2.abc_gates);
    std::fprintf(f, "      \"dc_gates\": %ld,\n", t2.dc_gates);
    std::fprintf(f, "      \"engine_stats\": [%d, %d, %d, %d, %d, %d, %d, %d]\n",
                 t2.maj_stats.and_steps, t2.maj_stats.or_steps, t2.maj_stats.xor_steps,
                 t2.maj_stats.maj_steps, t2.maj_stats.mux_steps,
                 t2.maj_stats.maj_attempts, t2.maj_stats.maj_rejected,
                 t2.maj_stats.literal_leaves);
    std::fprintf(f, "    }\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"ablation_mdom\": {\n");
    std::fprintf(f, "    \"seconds\": %.3f,\n", ab.seconds);
    std::fprintf(f, "    \"runs\": %d,\n", ab.runs);
    std::fprintf(f, "    \"equivalent\": %d,\n", ab.equivalent);
    std::fprintf(f, "    \"fingerprint\": {\n");
    std::fprintf(f, "      \"total_nodes\": %ld,\n", ab.total_nodes);
    std::fprintf(f, "      \"maj_nodes\": %ld\n", ab.maj_nodes);
    std::fprintf(f, "    }\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"thread_scaling\": {\n");
    std::fprintf(f, "    \"hardware_threads\": %u,\n", hw_threads);
    std::fprintf(f, "    \"levels\": [\n");
    for (std::size_t i = 0; i < sc.levels.size(); ++i) {
        const ScalingLevel& level = sc.levels[i];
        std::fprintf(f,
                     "      {\"jobs\": %d, \"suite_seconds\": %.3f, \"fingerprint\": "
                     "{\"maj_gates\": %ld, \"maj_area\": %.4f, \"pga_gates\": %ld, "
                     "\"abc_gates\": %ld, \"dc_gates\": %ld}}%s\n",
                     level.jobs, level.suite_seconds,
                     level.suite_fp.maj_gates, level.suite_fp.maj_area,
                     level.suite_fp.pga_gates, level.suite_fp.abc_gates,
                     level.suite_fp.dc_gates,
                     i + 1 < sc.levels.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
    std::fprintf(f, "    \"fingerprints_identical\": %s,\n",
                 sc.fingerprints_identical ? "true" : "false");
    std::fprintf(f, "    \"suite_speedup_4v1\": %.3f\n", sc.suite_speedup_4v1);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"service_throughput\": {\n");
    std::fprintf(f, "    \"seconds\": %.3f,\n", sv.seconds);
    std::fprintf(f, "    \"jobs\": %d,\n", sv.jobs);
    std::fprintf(f, "    \"completed\": %d,\n", sv.completed);
    std::fprintf(f, "    \"pool_threads\": %d,\n", sv.pool_threads);
    std::fprintf(f, "    \"fingerprint\": {\n");
    std::fprintf(f, "      \"maj_gates\": %ld,\n", sv.fp.maj_gates);
    std::fprintf(f, "      \"maj_area\": %.4f,\n", sv.fp.maj_area);
    std::fprintf(f, "      \"pga_gates\": %ld,\n", sv.fp.pga_gates);
    std::fprintf(f, "      \"abc_gates\": %ld,\n", sv.fp.abc_gates);
    std::fprintf(f, "      \"dc_gates\": %ld\n", sv.fp.dc_gates);
    std::fprintf(f, "    },\n");
    std::fprintf(f, "    \"matches_serial\": %s\n", sv.matches_serial ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"preset_sweep\": {\n");
    std::fprintf(f, "    \"circuits\": %d,\n",
                 presets.empty() ? 0 : presets[0].circuits);
    std::fprintf(f, "    \"entries\": [\n");
    for (std::size_t i = 0; i < presets.size(); ++i) {
        const PresetEntry& p = presets[i];
        // npn hits/misses are recorded for telemetry but are NOT part of
        // the fingerprint: they depend on what earlier sections already
        // pushed into the process-wide exact cache.
        std::fprintf(f,
                     "      {\"preset\": \"%s\", \"seconds\": %.3f, "
                     "\"equivalent\": %d, \"fingerprint\": "
                     "{\"decomposed_gates\": %ld, \"mapped_gates\": %ld, "
                     "\"mapped_area\": %.4f, \"engine_steps\": "
                     "[%d, %d, %d, %d, %d, %d, %d, %d], "
                     "\"symmetric_steps\": %d}, "
                     "\"npn_hits\": %lld, \"npn_misses\": %lld}%s\n",
                     p.preset.c_str(), p.seconds, p.equivalent,
                     p.decomposed_gates, p.mapped_gates, p.mapped_area,
                     p.stats.and_steps, p.stats.or_steps, p.stats.xor_steps,
                     p.stats.maj_steps, p.stats.mux_steps, p.stats.exact_steps,
                     p.stats.gen_xor_steps, p.stats.literal_leaves,
                     p.stats.symmetric_steps,
                     p.stats.npn_cache_hits, p.stats.npn_cache_misses,
                     i + 1 < presets.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"cone_cache\": {\n");
    std::fprintf(f, "    \"circuits\": [\n");
    for (std::size_t i = 0; i < cc.circuits.size(); ++i) {
        const ConeCacheCircuit& c = cc.circuits[i];
        const long long seen = c.cold_hits + c.cold_misses;
        std::fprintf(f,
                     "      {\"name\": \"%s\", \"off_seconds\": %.4f, "
                     "\"cold_seconds\": %.4f, \"warm_seconds\": %.4f, "
                     "\"cold_hits\": %lld, \"cold_misses\": %lld, "
                     "\"hit_rate\": %.4f, \"warm_speedup\": %.3f, "
                     "\"matches_cache_off\": %s}%s\n",
                     c.name.c_str(), c.off_seconds, c.cold_seconds,
                     c.warm_seconds, c.cold_hits, c.cold_misses,
                     seen > 0 ? static_cast<double>(c.cold_hits) /
                                    static_cast<double>(seen)
                              : 0.0,
                     c.warm_seconds > 0 ? c.cold_seconds / c.warm_seconds : 0.0,
                     c.matches_cache_off ? "true" : "false",
                     i + 1 < cc.circuits.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
    std::fprintf(f, "    \"service_cold_seconds\": %.4f,\n", cc.service_cold_seconds);
    std::fprintf(f, "    \"service_warm_seconds\": %.4f,\n", cc.service_warm_seconds);
    std::fprintf(f, "    \"service_warm_speedup\": %.3f,\n",
                 cc.service_warm_seconds > 0
                     ? cc.service_cold_seconds / cc.service_warm_seconds
                     : 0.0);
    std::fprintf(f, "    \"service_identical\": %s,\n",
                 cc.service_identical ? "true" : "false");
    std::fprintf(f, "    \"entries\": %lld,\n", cc.entries);
    std::fprintf(f, "    \"bytes\": %lld\n", cc.bytes);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"oracle\": {\n");
    std::fprintf(f, "    \"circuits\": [\n");
    {
        double sat_total = 0;
        for (const OracleEntry& o : oracle) sat_total += o.sat_seconds;
        for (std::size_t i = 0; i < oracle.size(); ++i) {
            const OracleEntry& o = oracle[i];
            std::fprintf(f,
                         "      {\"name\": \"%s\", \"inputs\": %d, "
                         "\"sat_seconds\": %.4f, \"bdd_seconds\": %.4f, "
                         "\"proved_internal\": %llu, \"sat_calls\": %llu, "
                         "\"fingerprint\": {\"equivalent\": %s, \"exact\": %s}}%s\n",
                         o.name.c_str(), o.inputs, o.sat_seconds, o.bdd_seconds,
                         static_cast<unsigned long long>(o.proved_internal),
                         static_cast<unsigned long long>(o.sat_calls),
                         o.equivalent ? "true" : "false",
                         o.exact ? "true" : "false",
                         i + 1 < oracle.size() ? "," : "");
        }
        std::fprintf(f, "    ],\n");
        std::fprintf(f, "    \"sat_total_seconds\": %.4f\n", sat_total);
    }
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"resilience\": {\n");
    std::fprintf(f, "    \"seconds\": %.4f,\n", rs.seconds);
    std::fprintf(f, "    \"shed\": {\"jobs\": %d, \"deadline_exceeded\": %d},\n",
                 rs.shed_jobs, rs.shed_deadline_exceeded);
    std::fprintf(f,
                 "    \"degraded\": {\"jobs\": %d, \"completed\": %d, "
                 "\"verified\": %d, \"degraded_supernodes\": %lld},\n",
                 rs.degraded_jobs, rs.degraded_completed, rs.degraded_verified,
                 rs.degraded_supernodes);
    std::fprintf(f,
                 "    \"guard\": {\"resource_exhausted_cones\": %lld, "
                 "\"equivalent\": %s},\n",
                 rs.guard_trips, rs.guard_equivalent ? "true" : "false");
    std::fprintf(f, "    \"armed_but_idle_identical\": %s\n",
                 rs.armed_but_idle_identical ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"cache\": {\n");
    std::fprintf(f, "    \"hits\": %llu,\n", static_cast<unsigned long long>(cs.hits));
    std::fprintf(f, "    \"misses\": %llu,\n", static_cast<unsigned long long>(cs.misses));
    std::fprintf(f, "    \"inserts\": %llu,\n", static_cast<unsigned long long>(cs.inserts));
    std::fprintf(f, "    \"collisions\": %llu\n", static_cast<unsigned long long>(cs.collisions));
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("bench_core: wrote %s\n", out_path.c_str());
    return 0;
}
