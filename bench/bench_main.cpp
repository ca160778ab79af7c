// Reproducible BDD-core throughput harness. Emits BENCH_core.json so every
// PR has a recorded perf trajectory (see docs/performance.md).
//
// The harness records timings and telemetry only. What the timed sections
// synthesize is pinned by tier-1 tests instead (tests/integration/
// golden_test.cpp and the tests docs/performance.md lists), so a timing
// here is only ever compared against an earlier timing.
//
// Cone-cache rule: every timed section that decomposes either clears the
// process-wide cone cache before its clock starts (a cold time) or
// carries "cone_cache": "warm" in its JSON section (a warm time).
//
// Sections:
//   * core ops   — top-level ITE / AND / XOR / MAJ calls per second over a
//                  deterministic pool of random functions (mixed cold/warm
//                  computed table: exactly what the decomposition engine
//                  sees);
//   * reorder    — nodes per second through Rudell sifting and swap/skip/
//                  lower-bound-abort telemetry over the MCNC circuits;
//                  dalu runs through dynamic-sifting construction, timed
//                  with plain and with symmetry-aware reordering;
//   * table2     — end-to-end Table II synthesis (quick widths), cold: all
//                  four flows plus equivalence checks, the same work
//                  bench/table2_synthesis.cpp does;
//   * ablation   — the dominator-heavy m-dominator ablation sweep of
//                  bench/ablation_mdom.cpp, cold;
//   * scaling    — the table2 circuits as one-circuit async jobs through
//                  flows::SynthesisService at max_concurrent_jobs =
//                  1/2/4 (the one layer of parallelism), warm;
//   * presets    — every decomposition strategy preset over the MCNC
//                  circuits, each from a cold cone cache;
//   * cone_cache — the canonical cone memoization layer: decomposition
//                  wall time with the cache off, cold, and warm on the
//                  most self-similar circuits (plus two identical jobs
//                  through the service), with hit/miss counts;
//   * oracle     — the equivalence-oracle shootout: multiplier circuits
//                  (the BDD-hostile workload) decomposed once, then the
//                  result signed off by the SAT engine and — where the
//                  monolithic BDD is still tractable — by the BDD engine,
//                  with per-circuit wall times and fraiging telemetry.
//
// tools/ci.sh gates the smoke run's wall times and rates against the
// smoke_reference block of the committed BENCH_core.json.
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
#include "benchgen/arith.hpp"
#include "benchgen/mcnc.hpp"
#include "benchgen/suite.hpp"
#include "decomp/cone_cache.hpp"
#include "decomp/flow.hpp"
#include "decomp/strategy.hpp"
#include "dynamic_sift.hpp"
#include "flows/flows.hpp"
#include "flows/service.hpp"
#include "mdom_sweep.hpp"
#include "network/cec.hpp"
#include "network/simulate.hpp"
#include "runtime/thread_pool.hpp"
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
// Reordering: sift throughput and swap/skip/abort telemetry. The post-sift
// node counts are pinned by Golden.ReorderPostSiftNodeCountsArePinned.
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
    /// dalu, built with dynamic sifting (the only way its monolithic BDD
    /// stays tractable), timed with plain and with symmetry-aware sifting.
    struct DaluReorder {
        double plain_seconds = 0;
        double sym_seconds = 0;
        std::uint64_t plain_swaps = 0;
        std::uint64_t sym_swaps = 0;
    } dalu;
};

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

    // MCNC sweep: global output BDDs per circuit, sifted once.
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
            const double seconds = bench::build_with_dynamic_sifting(mgr, dalu, roots);
            if (roots.empty()) std::abort();
            const bdd::ReorderStats& rs = mgr.reorder_stats();
            add_stats(rs);
            if (sym) {
                out.dalu.sym_seconds = seconds;
                out.dalu.sym_swaps = rs.swaps;
            } else {
                out.dalu.plain_seconds = seconds;
                out.dalu.plain_swaps = rs.swaps;
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// End-to-end Table II synthesis (quick widths), as table2_synthesis does.
// Its outputs are pinned by Golden.Table2SmokeSuiteIsPinnedAndEquivalent.
// ---------------------------------------------------------------------------

struct Table2Result {
    double seconds = 0;
    int circuits = 0;
};

/// The table2 circuits (quick widths); the smoke configuration keeps the
/// first four. The scaling section re-runs the same set.
std::vector<net::Network> table2_inputs(bool smoke) {
    std::vector<std::string> names = benchgen::benchmark_names();
    if (smoke) names.resize(4);
    std::vector<net::Network> inputs;
    for (const auto& name : names) {
        inputs.push_back(benchgen::benchmark_by_name(name, /*quick=*/true));
    }
    return inputs;
}

Table2Result bench_table2(bool smoke) {
    const std::vector<net::Network> inputs = table2_inputs(smoke);
    Table2Result out;
    out.circuits = static_cast<int>(inputs.size());
    decomp::ConeCache::instance().clear();
    const auto start = Clock::now();
    for (const net::Network& input : inputs) {
        // The equivalence checks are part of the timed work; a timing of
        // a wrong result means nothing.
        for (const auto& r : flows::run_all_flows(input)) {
            if (!net::check_equivalent(input, r.mapped.netlist, net::CecParams{.sim_rounds = 32})
                     .equivalent) {
                std::abort();
            }
        }
    }
    out.seconds = seconds_since(start);
    return out;
}

// ---------------------------------------------------------------------------
// Dominator-heavy ablation sweep, as ablation_mdom does.
// ---------------------------------------------------------------------------

struct AblationResult {
    double seconds = 0;
    int runs = 0;
};

AblationResult bench_ablation_mdom(bool smoke) {
    // Sweep definition shared with bench/ablation_mdom.cpp and
    // Golden.AblationMdomSweepIsPinnedAndEquivalent via mdom_sweep.hpp.
    std::vector<std::string> circuits = bench::mdom_sweep_circuits();
    if (smoke) circuits.resize(2);
    std::vector<net::Network> inputs;
    for (const auto& name : circuits) {
        inputs.push_back(benchgen::benchmark_by_name(name, /*quick=*/true));
    }
    AblationResult out;
    decomp::ConeCache::instance().clear();
    const auto start = Clock::now();
    for (const bench::MdomSweepConfig& cfg : bench::mdom_sweep_configs()) {
        for (const net::Network& input : inputs) {
            (void)decomp::decompose_network(input, bench::mdom_sweep_params(cfg));
            ++out.runs;
        }
    }
    out.seconds = seconds_since(start);
    return out;
}

// ---------------------------------------------------------------------------
// Service scaling: the table2 circuits as one-circuit service jobs at
// max_concurrent_jobs = 1/2/4 on a private 4-thread pool. It re-runs
// table2's circuits with table2's parameters, so every level runs on a
// fully warm cone cache.
// ---------------------------------------------------------------------------

constexpr int kScalingPoolThreads = 4;

struct ScalingLevel {
    int max_concurrent_jobs = 0;
    double suite_seconds = 0;  ///< submit of the first job to the last result
    int completed = 0;
};

struct ScalingResult {
    int jobs = 0;  ///< one per table2 circuit, at every level
    std::vector<ScalingLevel> levels;
    double suite_speedup_4v1 = 0;
};

ScalingResult bench_service_scaling(bool smoke) {
    const std::vector<net::Network> inputs = table2_inputs(smoke);
    ScalingResult out;
    out.jobs = static_cast<int>(inputs.size());
    runtime::ThreadPool pool(kScalingPoolThreads);
    for (const int concurrent : {1, 2, 4}) {
        ScalingLevel level;
        level.max_concurrent_jobs = concurrent;
        flows::ServiceParams sp;
        sp.max_concurrent_jobs = concurrent;
        sp.pool = &pool;
        flows::SynthesisService service(sp);
        const flows::SynthesisJobParams jp;  // all four flows
        std::vector<flows::SynthesisService::Submission> subs;
        subs.reserve(inputs.size());
        const auto start = Clock::now();
        for (const net::Network& input : inputs) subs.push_back(service.submit(input, jp));
        for (auto& sub : subs) (void)sub.result.get();
        level.suite_seconds = seconds_since(start);
        level.completed = service.stats().completed;
        out.levels.push_back(level);
    }
    out.suite_speedup_4v1 =
        out.levels[0].suite_seconds / out.levels.back().suite_seconds;
    return out;
}

// ---------------------------------------------------------------------------
// Preset sweep: every strategy preset over the MCNC circuits, each timed
// from a cold cone cache.
// ---------------------------------------------------------------------------

struct PresetEntry {
    std::string preset;
    double seconds = 0;  ///< decomposition sweep only
    int circuits = 0;
};

std::vector<PresetEntry> bench_preset_sweep() {
    // All ten MCNC circuits even in smoke mode: the whole sweep takes
    // under a second.
    std::vector<net::Network> inputs;
    for (const benchgen::BenchmarkCase& bc : benchgen::table_suite(/*quick=*/true)) {
        if (!bc.is_mcnc) continue;
        inputs.push_back(bc.network);
    }
    std::vector<PresetEntry> out;
    for (const decomp::Preset& p : decomp::presets()) {
        PresetEntry entry;
        entry.preset = p.name;
        entry.circuits = static_cast<int>(inputs.size());
        // Earlier sections leave the process-wide cone cache warm; clearing
        // it makes every preset's time a cold-cache time.
        decomp::ConeCache::instance().clear();
        const auto start = Clock::now();
        for (const net::Network& input : inputs) {
            decomp::DecompFlowParams params;
            params.engine.preset = p.name;
            (void)decomp::decompose_network(input, params);
        }
        entry.seconds = seconds_since(start);
        out.push_back(std::move(entry));
    }
    return out;
}

// ---------------------------------------------------------------------------
// Cone memoization: cache-off vs cold vs warm decomposition wall times on
// the self-similar circuits the cache exists for, plus two identical jobs
// through the SynthesisService (the cross-job warm path).
// ---------------------------------------------------------------------------

struct ConeCacheCircuit {
    std::string name;
    double off_seconds = 0;   ///< cone_cache = false
    double cold_seconds = 0;  ///< cache cleared immediately before
    double warm_seconds = 0;  ///< repeated right after the cold run
    long long cold_hits = 0;  ///< intra-circuit hits during the cold run
    long long cold_misses = 0;
};

struct ConeCacheBenchResult {
    std::vector<ConeCacheCircuit> circuits;
    double service_cold_seconds = 0;
    double service_warm_seconds = 0;
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
        (void)run(false, &entry.off_seconds);
        cache.clear();
        const decomp::DecompFlowResult cold = run(true, &entry.cold_seconds);
        entry.cold_hits = cold.engine_stats.cone_cache_hits;
        entry.cold_misses = cold.engine_stats.cone_cache_misses;
        (void)run(true, &entry.warm_seconds);
        out.circuits.push_back(std::move(entry));
    }

    // Cross-job warmth: the second identical service job rides the cache
    // the first one filled. Both jobs carry the MCNC pair only: the
    // mapping tail is uncached and identical in both jobs, so keeping it
    // small (wallace16's mapped netlist is an order of magnitude larger)
    // lets the delta measure the cache rather than the mapper.
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
            const flows::FlowResult r = service.submit_suite(std::move(inputs), jp).result.get();
            *secs = seconds_since(start);
            if (r.status != flows::JobStatus::kCompleted) std::abort();
        };
        timed_job(&out.service_cold_seconds);
        timed_job(&out.service_warm_seconds);
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
            if (!eq.equivalent) std::abort();
            entry.proved_internal = stats.proved_internal;
            entry.sat_calls = stats.sat_calls;
        }
        if (c.bdd_feasible) {
            const auto start = Clock::now();
            const net::EquivalenceResult eq = net::bdd_equivalent(c.network, d.network);
            entry.bdd_seconds = seconds_since(start);
            if (!eq.equivalent) std::abort();
        }
        out.push_back(std::move(entry));
    }
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
                "symmetry %.3f s / %llu swaps\n",
                ro.dalu.plain_seconds,
                static_cast<unsigned long long>(ro.dalu.plain_swaps),
                ro.dalu.sym_seconds,
                static_cast<unsigned long long>(ro.dalu.sym_swaps));

    std::printf("bench_core: table2 end-to-end (quick%s)...\n",
                smoke ? ", smoke subset" : "");
    const Table2Result t2 = bench_table2(smoke);
    std::printf("  %.2f s, %d circuits (cold cone cache)\n", t2.seconds, t2.circuits);

    std::printf("bench_core: ablation_mdom sweep%s...\n",
                smoke ? " (smoke subset)" : "");
    const AblationResult ab = bench_ablation_mdom(smoke);
    std::printf("  %.2f s, %d runs (cold cone cache)\n", ab.seconds, ab.runs);

    const unsigned hw_threads = std::thread::hardware_concurrency();
    const bool single_threaded = hw_threads <= 1;
    if (single_threaded) {
        std::printf("WARNING: this container exposes 1 hardware thread — the "
                    "service_scaling\n"
                    "WARNING: numbers below measure scheduling overhead, not "
                    "speedup. Re-measure\n"
                    "WARNING: on a multi-core machine before quoting scaling "
                    "results.\n");
    }
    std::printf("bench_core: service scaling (%s, max_concurrent_jobs 1/2/4, %u hw "
                "thread%s, warm cone cache)...\n",
                smoke ? "smoke subset" : "full suite", hw_threads,
                hw_threads == 1 ? "" : "s");
    const ScalingResult sc = bench_service_scaling(smoke);
    for (const ScalingLevel& level : sc.levels) {
        std::printf("  max_concurrent_jobs=%d: %d/%d jobs in %.2f s\n",
                    level.max_concurrent_jobs, level.completed, sc.jobs,
                    level.suite_seconds);
    }
    std::printf("  suite speedup(4v1) %.2fx\n", sc.suite_speedup_4v1);

    std::printf("bench_core: preset sweep (MCNC suite, cold cone cache)...\n");
    const std::vector<PresetEntry> presets = bench_preset_sweep();
    for (const PresetEntry& p : presets) {
        std::printf("  %-18s %.2f s\n", p.preset.c_str(), p.seconds);
    }

    std::printf("bench_core: cone memoization (off/cold/warm)...\n");
    const ConeCacheBenchResult cc = bench_cone_cache(smoke);
    for (const ConeCacheCircuit& c : cc.circuits) {
        const long long seen = c.cold_hits + c.cold_misses;
        std::printf("  %-10s off %.3f s, cold %.3f s (hit rate %.0f%%), warm "
                    "%.3f s (%.1fx)\n",
                    c.name.c_str(), c.off_seconds, c.cold_seconds,
                    seen > 0 ? 100.0 * static_cast<double>(c.cold_hits) /
                                   static_cast<double>(seen)
                             : 0.0,
                    c.warm_seconds,
                    c.warm_seconds > 0 ? c.cold_seconds / c.warm_seconds : 0.0);
    }
    std::printf("  service: cold job %.3f s, warm job %.3f s (%.1fx)\n",
                cc.service_cold_seconds, cc.service_warm_seconds,
                cc.service_warm_seconds > 0
                    ? cc.service_cold_seconds / cc.service_warm_seconds
                    : 0.0);

    std::printf("bench_core: equivalence oracle shootout%s...\n",
                smoke ? " (smoke widths)" : "");
    const std::vector<OracleEntry> oracle = bench_oracle(smoke);
    for (const OracleEntry& o : oracle) {
        if (o.bdd_seconds >= 0) {
            std::printf("  %-10s %2d inputs: SAT %7.1f ms, BDD %8.1f ms (%.1fx)\n",
                        o.name.c_str(), o.inputs, o.sat_seconds * 1e3,
                        o.bdd_seconds * 1e3, o.bdd_seconds / o.sat_seconds);
        } else {
            std::printf("  %-10s %2d inputs: SAT %7.1f ms, BDD intractable\n",
                        o.name.c_str(), o.inputs, o.sat_seconds * 1e3);
        }
    }

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
    std::fprintf(f, "  \"schema\": \"bdsmaj-bench-core-v14\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    // Honesty marker: on a 1-hardware-thread container the scaling
    // section can only demonstrate determinism, never speedup.
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
    std::fprintf(f, "    \"dalu_dynamic_sift\": {\n");
    std::fprintf(f, "      \"plain_seconds\": %.4f,\n", ro.dalu.plain_seconds);
    std::fprintf(f, "      \"plain_swaps\": %llu,\n",
                 static_cast<unsigned long long>(ro.dalu.plain_swaps));
    std::fprintf(f, "      \"symmetry_seconds\": %.4f,\n", ro.dalu.sym_seconds);
    std::fprintf(f, "      \"symmetry_swaps\": %llu\n",
                 static_cast<unsigned long long>(ro.dalu.sym_swaps));
    std::fprintf(f, "    }\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"table2_synthesis\": {\n");
    std::fprintf(f, "    \"seconds\": %.3f,\n", t2.seconds);
    std::fprintf(f, "    \"circuits\": %d\n", t2.circuits);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"ablation_mdom\": {\n");
    std::fprintf(f, "    \"seconds\": %.3f,\n", ab.seconds);
    std::fprintf(f, "    \"runs\": %d\n", ab.runs);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"service_scaling\": {\n");
    std::fprintf(f, "    \"hardware_threads\": %u,\n", hw_threads);
    std::fprintf(f, "    \"pool_threads\": %d,\n", kScalingPoolThreads);
    std::fprintf(f, "    \"cone_cache\": \"warm\",\n");
    std::fprintf(f, "    \"jobs\": %d,\n", sc.jobs);
    std::fprintf(f, "    \"levels\": [\n");
    for (std::size_t i = 0; i < sc.levels.size(); ++i) {
        const ScalingLevel& level = sc.levels[i];
        std::fprintf(f,
                     "      {\"max_concurrent_jobs\": %d, \"suite_seconds\": %.3f, "
                     "\"completed\": %d}%s\n",
                     level.max_concurrent_jobs, level.suite_seconds, level.completed,
                     i + 1 < sc.levels.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
    std::fprintf(f, "    \"suite_speedup_4v1\": %.3f\n", sc.suite_speedup_4v1);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"preset_sweep\": {\n");
    std::fprintf(f, "    \"circuits\": %d,\n",
                 presets.empty() ? 0 : presets[0].circuits);
    std::fprintf(f, "    \"entries\": [\n");
    for (std::size_t i = 0; i < presets.size(); ++i) {
        const PresetEntry& p = presets[i];
        std::fprintf(f, "      {\"preset\": \"%s\", \"seconds\": %.3f}%s\n",
                     p.preset.c_str(), p.seconds, i + 1 < presets.size() ? "," : "");
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
                     "\"hit_rate\": %.4f, \"warm_speedup\": %.3f}%s\n",
                     c.name.c_str(), c.off_seconds, c.cold_seconds,
                     c.warm_seconds, c.cold_hits, c.cold_misses,
                     seen > 0 ? static_cast<double>(c.cold_hits) /
                                    static_cast<double>(seen)
                              : 0.0,
                     c.warm_seconds > 0 ? c.cold_seconds / c.warm_seconds : 0.0,
                     i + 1 < cc.circuits.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
    std::fprintf(f, "    \"service_cold_seconds\": %.4f,\n", cc.service_cold_seconds);
    std::fprintf(f, "    \"service_warm_seconds\": %.4f,\n", cc.service_warm_seconds);
    std::fprintf(f, "    \"service_warm_speedup\": %.3f,\n",
                 cc.service_warm_seconds > 0
                     ? cc.service_cold_seconds / cc.service_warm_seconds
                     : 0.0);
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
                         "\"proved_internal\": %llu, \"sat_calls\": %llu}%s\n",
                         o.name.c_str(), o.inputs, o.sat_seconds, o.bdd_seconds,
                         static_cast<unsigned long long>(o.proved_internal),
                         static_cast<unsigned long long>(o.sat_calls),
                         i + 1 < oracle.size() ? "," : "");
        }
        std::fprintf(f, "    ],\n");
        std::fprintf(f, "    \"sat_total_seconds\": %.4f\n", sat_total);
    }
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
