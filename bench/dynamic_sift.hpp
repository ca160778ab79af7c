#pragma once
// Dynamic-sifting construction of a network's global output BDDs, shared
// by the perf-trajectory harness (bench_main.cpp, which times it) and the
// reorder golden test (tests/integration/golden_test.cpp, which pins the
// node count it reaches), so both exercise the same recipe.

#include <algorithm>
#include <chrono>
#include <vector>

#include "bdd/bdd.hpp"
#include "network/network.hpp"
#include "network/simulate.hpp"

namespace bdsmaj::bench {

/// Build every output BDD of `network`, sifting whenever the live count
/// crosses a doubling threshold — the standard dynamic-reordering recipe
/// that keeps input-order-hostile circuits (dalu) from exploding before
/// their first sift. Returns total seconds spent inside sift().
inline double build_with_dynamic_sifting(bdd::Manager& mgr, const net::Network& network,
                                         std::vector<bdd::Bdd>& outs) {
    using Clock = std::chrono::steady_clock;
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
        if (n.kind != net::GateKind::kInput) value[id] = net::node_bdd(mgr, n, in);
        if (mgr.live_node_count() > threshold) {
            const auto start = Clock::now();
            mgr.sift();
            sift_seconds += std::chrono::duration<double>(Clock::now() - start).count();
            threshold = std::max(threshold, mgr.live_node_count() * 2);
        }
    }
    outs.clear();
    for (const net::OutputPort& po : network.outputs()) outs.push_back(value[po.driver]);
    return sift_seconds;
}

}  // namespace bdsmaj::bench
