// Micro-benchmarks of the BDD substrate: ITE, generalized cofactors,
// sifting reorder, node redirection, and supernode-scale decomposition.
// These are the primitives whose costs Section III-F's complexity analysis
// is built from.

#include <benchmark/benchmark.h>

#include <random>

#include "bdd/bdd.hpp"
#include "decomp/dominators.hpp"
#include "decomp/engine.hpp"
#include "network/builder.hpp"
#include "tt/truth_table.hpp"

namespace {

using namespace bdsmaj;

/// Deterministic pool of random-function BDDs in one manager.
std::vector<bdd::Bdd> make_pool(bdd::Manager& mgr, int vars, int count,
                                std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<bdd::Bdd> pool;
    pool.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        pool.push_back(mgr.from_truth_table(tt::TruthTable::random(vars, rng)));
    }
    return pool;
}

void BM_ApplyAnd(benchmark::State& state) {
    const int vars = static_cast<int>(state.range(0));
    bdd::Manager mgr(vars);
    const auto pool = make_pool(mgr, vars, 24, 23);
    std::size_t i = 0;
    for (auto _ : state) {
        const auto& a = pool[i % pool.size()];
        const auto& b = pool[(i + 7) % pool.size()];
        benchmark::DoNotOptimize(mgr.apply_and(a, b));
        ++i;
    }
}
BENCHMARK(BM_ApplyAnd)->DenseRange(8, 14, 2)->Unit(benchmark::kMicrosecond);

void BM_ApplyXor(benchmark::State& state) {
    const int vars = static_cast<int>(state.range(0));
    bdd::Manager mgr(vars);
    const auto pool = make_pool(mgr, vars, 24, 29);
    std::size_t i = 0;
    for (auto _ : state) {
        const auto& a = pool[i % pool.size()];
        const auto& b = pool[(i + 11) % pool.size()];
        benchmark::DoNotOptimize(mgr.apply_xor(a, b));
        ++i;
    }
}
BENCHMARK(BM_ApplyXor)->DenseRange(8, 14, 2)->Unit(benchmark::kMicrosecond);

void BM_DagSize(benchmark::State& state) {
    // Stamp-based traversal throughput (was an unordered_set per call).
    const int vars = static_cast<int>(state.range(0));
    bdd::Manager mgr(vars);
    const auto pool = make_pool(mgr, vars, 8, 31);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mgr.dag_size(pool[i++ % pool.size()]));
    }
}
BENCHMARK(BM_DagSize)->DenseRange(8, 16, 2)->Unit(benchmark::kMicrosecond);

void BM_DominatorAnalysis(benchmark::State& state) {
    // Full path-parity analysis plus the one-pass node-size computation.
    const int vars = static_cast<int>(state.range(0));
    bdd::Manager mgr(vars);
    const auto pool = make_pool(mgr, vars, 8, 37);
    std::size_t i = 0;
    for (auto _ : state) {
        decomp::DominatorAnalysis analysis(mgr, pool[i++ % pool.size()]);
        benchmark::DoNotOptimize(analysis.node_sizes().size());
    }
}
BENCHMARK(BM_DominatorAnalysis)->DenseRange(8, 12, 2)->Unit(benchmark::kMicrosecond);

void BM_FromTruthTable(benchmark::State& state) {
    const int vars = static_cast<int>(state.range(0));
    std::mt19937_64 rng(11);
    const tt::TruthTable t = tt::TruthTable::random(vars, rng);
    for (auto _ : state) {
        bdd::Manager mgr(vars);
        benchmark::DoNotOptimize(mgr.from_truth_table(t));
    }
}
BENCHMARK(BM_FromTruthTable)->DenseRange(8, 14, 2)->Unit(benchmark::kMicrosecond);

void BM_Sift(benchmark::State& state) {
    const int vars = static_cast<int>(state.range(0));
    std::mt19937_64 rng(13);
    const tt::TruthTable t = tt::TruthTable::random(vars, rng);
    for (auto _ : state) {
        state.PauseTiming();
        bdd::Manager mgr(vars);
        const bdd::Bdd f = mgr.from_truth_table(t);
        benchmark::DoNotOptimize(f.edge());
        state.ResumeTiming();
        mgr.sift();
    }
}
BENCHMARK(BM_Sift)->DenseRange(8, 14, 2)->Unit(benchmark::kMicrosecond);

void BM_SiftOrderSensitive(benchmark::State& state) {
    // The classic x0x3 + x1x4 + x2x5 ... function where sifting must find
    // the interleaved order.
    const int pairs = static_cast<int>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        bdd::Manager mgr(2 * pairs);
        bdd::Bdd f = mgr.zero();
        for (int i = 0; i < pairs; ++i) {
            f = f | (mgr.var_bdd(i) & mgr.var_bdd(pairs + i));
        }
        state.ResumeTiming();
        mgr.sift();
        benchmark::DoNotOptimize(mgr.dag_size(f));
    }
}
BENCHMARK(BM_SiftOrderSensitive)->DenseRange(4, 10, 2)->Unit(benchmark::kMicrosecond);

void BM_ReplaceNode(benchmark::State& state) {
    const int vars = static_cast<int>(state.range(0));
    std::mt19937_64 rng(17);
    bdd::Manager mgr(vars);
    const bdd::Bdd f = mgr.from_truth_table(tt::TruthTable::random(vars, rng));
    std::vector<bdd::NodeIndex> nodes;
    mgr.visit_nodes(f, [&](bdd::NodeIndex v) { nodes.push_back(v); });
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mgr.replace_node_with_const(f, nodes[i++ % nodes.size()], true));
    }
}
BENCHMARK(BM_ReplaceNode)->DenseRange(8, 14, 2)->Unit(benchmark::kMicrosecond);

void BM_EngineDecompose(benchmark::State& state) {
    const int vars = static_cast<int>(state.range(0));
    std::mt19937_64 rng(19);
    const tt::TruthTable t = tt::TruthTable::random(vars, rng);
    for (auto _ : state) {
        bdd::Manager mgr(vars);
        const bdd::Bdd f = mgr.from_truth_table(t);
        net::Network network;
        net::HashedNetworkBuilder builder(network);
        std::vector<net::Signal> leaves;
        for (int i = 0; i < vars; ++i) {
            leaves.push_back(
                {network.add_input(std::string("x").append(std::to_string(i))), false});
        }
        decomp::BddDecomposer decomposer(mgr, builder, leaves, {});
        benchmark::DoNotOptimize(decomposer.decompose(f));
    }
}
BENCHMARK(BM_EngineDecompose)->DenseRange(6, 12, 2)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
