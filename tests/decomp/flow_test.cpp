// End-to-end tests of the BDS-MAJ decomposition flow (Fig. 3): partition ->
// local BDDs -> decompose -> shared factoring -> cleanup, with functional
// equivalence as the sign-off on every case.

#include "decomp/flow.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "flows/flows.hpp"
#include "flows/service.hpp"
#include "network/blif.hpp"
#include "network/cec.hpp"
#include "tt/truth_table.hpp"

namespace bdsmaj::decomp {
namespace {

using net::Network;
using net::NodeId;

Network ripple_adder(int bits) {
    Network net(std::string("rca").append(std::to_string(bits)));
    std::vector<NodeId> a, b;
    for (int i = 0; i < bits; ++i) {
        a.push_back(net.add_input(std::string("a").append(std::to_string(i))));
    }
    for (int i = 0; i < bits; ++i) {
        b.push_back(net.add_input(std::string("b").append(std::to_string(i))));
    }
    NodeId carry = net.add_input("cin");
    for (int i = 0; i < bits; ++i) {
        const NodeId sum = net.add_xor(net.add_xor(a[i], b[i]), carry);
        const NodeId next = net.add_maj(a[i], b[i], carry);
        net.add_output(std::string("s").append(std::to_string(i)), sum);
        carry = next;
    }
    net.add_output("cout", carry);
    return net;
}

Network random_control(int inputs, int outputs, int gates, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    Network net("ctrl");
    std::vector<NodeId> pool;
    for (int i = 0; i < inputs; ++i) {
        pool.push_back(net.add_input(std::string("i").append(std::to_string(i))));
    }
    for (int g = 0; g < gates; ++g) {
        const auto pick = [&] { return pool[rng() % pool.size()]; };
        switch (rng() % 5) {
            case 0: pool.push_back(net.add_and(pick(), pick())); break;
            case 1: pool.push_back(net.add_or(pick(), pick())); break;
            case 2: pool.push_back(net.add_xor(pick(), pick())); break;
            case 3: pool.push_back(net.add_not(pick())); break;
            default: pool.push_back(net.add_mux(pick(), pick(), pick())); break;
        }
    }
    for (int o = 0; o < outputs; ++o) {
        net.add_output(std::string("o").append(std::to_string(o)),
                       pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
    }
    return net;
}

TEST(Flow, RippleAdderBothModesAreEquivalent) {
    const Network input = ripple_adder(4);
    const DecompFlowResult maj = run_bdsmaj(input);
    const DecompFlowResult pga = run_bdspga(input);
    EXPECT_TRUE(net::check_equivalent(input, maj.network).equivalent);
    EXPECT_TRUE(net::check_equivalent(input, pga.network).equivalent);
    EXPECT_EQ(pga.network.stats().maj_nodes, 0) << "baseline must be MAJ-free";
    EXPECT_GT(maj.network.stats().maj_nodes, 0)
        << "carry chains must yield MAJ nodes in BDS-MAJ";
}

TEST(Flow, MajReducesNodeCountOnAdder) {
    // The headline Table I effect, on the canonical datapath circuit.
    const Network input = ripple_adder(8);
    const DecompFlowResult maj = run_bdsmaj(input);
    const DecompFlowResult pga = run_bdspga(input);
    EXPECT_TRUE(net::check_equivalent(input, maj.network).equivalent);
    EXPECT_TRUE(net::check_equivalent(input, pga.network).equivalent);
    EXPECT_LT(maj.network.stats().total(), pga.network.stats().total());
}

TEST(Flow, RandomControlNetworks) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const Network input = random_control(8, 4, 40, seed);
        const DecompFlowResult maj = run_bdsmaj(input);
        const DecompFlowResult pga = run_bdspga(input);
        ASSERT_TRUE(net::check_equivalent(input, maj.network).equivalent)
            << "seed " << seed;
        ASSERT_TRUE(net::check_equivalent(input, pga.network).equivalent)
            << "seed " << seed;
    }
}

TEST(Flow, SopNetworksFromBlif) {
    const Network input = net::parse_blif(
        ".model mixed\n"
        ".inputs a b c d\n"
        ".outputs f g\n"
        ".names a b c t\n11- 1\n--1 1\n"
        ".names t d f\n10 1\n01 1\n"
        ".names a d g\n11 1\n"
        ".end\n");
    const DecompFlowResult r = run_bdsmaj(input);
    EXPECT_TRUE(net::check_equivalent(input, r.network).equivalent);
    EXPECT_EQ(r.network.stats().sop_nodes, 0) << "flow output is structured gates";
}

TEST(Flow, WideNetworkRespectsPartitionBudget) {
    // 40 inputs force multiple supernodes under the default 16-leaf budget.
    std::mt19937_64 rng(42);
    Network net("wide");
    std::vector<NodeId> layer;
    for (int i = 0; i < 40; ++i) {
        layer.push_back(net.add_input(std::string("i").append(std::to_string(i))));
    }
    while (layer.size() > 1) {
        std::vector<NodeId> next;
        for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
            next.push_back((rng() & 1) ? net.add_xor(layer[i], layer[i + 1])
                                       : net.add_and(layer[i], layer[i + 1]));
        }
        if (layer.size() % 2 == 1) next.push_back(layer.back());
        layer = std::move(next);
    }
    net.add_output("y", layer[0]);
    const DecompFlowResult r = run_bdsmaj(net);
    EXPECT_GT(r.supernode_count, 1);
    // The SAT engine: at 40 inputs this used to silently fall back to
    // random simulation; now it is an exact proof.
    const net::EquivalenceResult eq = net::sat_equivalent(net, r.network);
    EXPECT_TRUE(eq.equivalent);
    EXPECT_EQ(eq.engine, net::EquivEngine::kSat);
}

TEST(Flow, ReorderingOffStillCorrect) {
    DecompFlowParams params;
    params.reorder = false;
    const Network input = ripple_adder(3);
    const DecompFlowResult r = decompose_network(input, params);
    EXPECT_TRUE(net::check_equivalent(input, r.network).equivalent);
}

TEST(Flow, ConstantsAndWiresSurvive) {
    Network net("edge");
    const NodeId a = net.add_input("a");
    net.add_output("wire", a);
    net.add_output("const1", net.add_constant(true));
    net.add_output("notA", net.add_not(a));
    const DecompFlowResult r = run_bdsmaj(net);
    EXPECT_TRUE(net::check_equivalent(net, r.network).equivalent);
}

TEST(Flow, StatsAreConsistent) {
    const Network input = ripple_adder(6);
    const DecompFlowResult r = run_bdsmaj(input);
    const EngineStats& s = r.engine_stats;
    EXPECT_GE(s.maj_attempts, s.maj_steps);
    EXPECT_GT(r.supernode_count, 0);
    EXPECT_GE(r.seconds, 0.0);
}

TEST(Flow, XorIntensiveCircuitKeepsXorAlphabet) {
    Network net("parity16");
    std::vector<NodeId> xs;
    for (int i = 0; i < 16; ++i) {
        xs.push_back(net.add_input(std::string("x").append(std::to_string(i))));
    }
    NodeId acc = xs[0];
    for (int i = 1; i < 16; ++i) acc = net.add_xor(acc, xs[i]);
    net.add_output("p", acc);
    const DecompFlowResult r = run_bdsmaj(net);
    EXPECT_TRUE(net::check_equivalent(net, r.network).equivalent);
    const auto s = r.network.stats();
    EXPECT_EQ(s.and_nodes + s.or_nodes, 0) << "parity stays XOR/XNOR-only";
    EXPECT_GE(s.xor_nodes + s.xnor_nodes, 15);
}

// ---------------------------------------------------------------------------
// ManagerParams plumbing: DecompFlowParams::manager must reach the
// per-supernode managers, and the flow must surface their reordering
// telemetry through EngineStats.
// ---------------------------------------------------------------------------

TEST(Flow, ManagerParamsReachTheSupernodeManagers) {
    const Network input = random_control(12, 4, 60, 0xf10e);
    DecompFlowParams defaults;
    const DecompFlowResult with_sift = decompose_network(input, defaults);
    EXPECT_GT(with_sift.engine_stats.sift_swaps +
                  with_sift.engine_stats.sift_fast_swaps,
              0ll)
        << "default flow should report reordering effort";
    EXPECT_GT(with_sift.engine_stats.peak_bdd_nodes, 0ll);

    EXPECT_GT(with_sift.engine_stats.sift_lb_aborts, 0ll);

    // sift_lower_bound = false explores every sift direction to its end:
    // no lower-bound aborts and more swaps for the same final order —
    // observable only if the params actually arrived.
    DecompFlowParams exhaustive;
    exhaustive.manager.sift_lower_bound = false;
    const DecompFlowResult no_lb = decompose_network(input, exhaustive);
    EXPECT_EQ(no_lb.engine_stats.sift_lb_aborts, 0ll);
    EXPECT_GT(no_lb.engine_stats.sift_swaps + no_lb.engine_stats.sift_fast_swaps,
              with_sift.engine_stats.sift_swaps + with_sift.engine_stats.sift_fast_swaps);
    EXPECT_TRUE(net::check_equivalent(input, no_lb.network).equivalent);
    EXPECT_TRUE(net::check_equivalent(input, with_sift.network).equivalent);
}

TEST(Flow, ConvergingSiftFlowStaysEquivalent) {
    const Network input = ripple_adder(5);
    DecompFlowParams params;
    params.manager.sift_converge = true;
    const DecompFlowResult r = decompose_network(input, params);
    EXPECT_TRUE(net::check_equivalent(input, r.network).equivalent);
}

TEST(Flow, ReorderTelemetryIsDeterministicAcrossJobCounts) {
    // The circuits run once serially and once as four concurrent service
    // jobs (a private 4-thread pool); each circuit's sift telemetry must
    // not depend on that.
    const std::vector<Network> inputs = {
        random_control(14, 5, 90, 0xabc), random_control(12, 4, 70, 0x123),
        random_control(16, 6, 110, 0x777), ripple_adder(6)};
    flows::SynthesisJobParams jp;
    jp.flow = "bdsmaj";
    const auto serial = flows::run_suite(inputs, jp, jp.flow);
    runtime::ThreadPool pool(4);
    flows::ServiceParams sp;
    sp.pool = &pool;
    sp.max_concurrent_jobs = 4;
    flows::SynthesisService service(sp);
    std::vector<flows::SynthesisService::Submission> subs;
    for (const Network& input : inputs) subs.push_back(service.submit(input, jp));
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const flows::FlowResult r = subs[i].result.get();
        ASSERT_EQ(r.status, flows::JobStatus::kCompleted) << i;
        const EngineStats& a = serial[i][0].engine_stats;
        const EngineStats& b = r.results.at(0).at(0).engine_stats;
        EXPECT_EQ(a.sift_swaps, b.sift_swaps) << i;
        EXPECT_EQ(a.sift_fast_swaps, b.sift_fast_swaps) << i;
        EXPECT_EQ(a.sift_lb_aborts, b.sift_lb_aborts) << i;
        EXPECT_EQ(a.peak_bdd_nodes, b.peak_bdd_nodes) << i;
    }
}

}  // namespace
}  // namespace bdsmaj::decomp
