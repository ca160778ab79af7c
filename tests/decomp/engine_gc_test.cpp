// Regression test: the decomposer memoizes results by raw BDD edge; those
// functions must stay referenced, because garbage collection reuses node
// slots and a dangling memo key would silently alias a different function.
// (Found on the 16-leaf supernodes of the Wallace multiplier: only managers
// that actually cross the GC threshold expose it.)

#include <gtest/gtest.h>

#include <random>

#include "decomp/engine.hpp"
#include "network/builder.hpp"
#include "network/simulate.hpp"
#include "tt/truth_table.hpp"

namespace bdsmaj::decomp {
namespace {

using bdd::Bdd;
using tt::TruthTable;

TEST(EngineGc, AggressiveCollectionDoesNotAliasMemoEntries) {
    std::mt19937_64 rng(0x6c);
    for (int trial = 0; trial < 6; ++trial) {
        bdd::ManagerParams params;
        params.gc_dead_threshold = 8;  // collect almost constantly
        const int n = 10;
        bdd::Manager mgr(n, params);
        const TruthTable oracle = TruthTable::random(n, rng);
        const Bdd f = mgr.from_truth_table(oracle);

        net::Network network;
        net::HashedNetworkBuilder builder(network);
        std::vector<net::Signal> leaves;
        for (int i = 0; i < n; ++i) {
            leaves.push_back(
                {network.add_input(std::string("x").append(std::to_string(i))), false});
        }
        BddDecomposer decomposer(mgr, builder, leaves, EngineParams{});
        network.add_output("f", builder.realize(decomposer.decompose(f)));

        for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); m += 7) {
            std::vector<bool> input;
            for (int i = 0; i < n; ++i) input.push_back((m >> i) & 1);
            ASSERT_EQ(simulate(network, input)[0], oracle.get_bit(m))
                << "trial " << trial << " minterm " << m;
        }
    }
}

TEST(EngineGc, ManySequentialDecompositionsShareOneManager) {
    // Multiple functions decomposed through one decomposer while GC churns:
    // memo entries from earlier calls must remain valid for later ones.
    bdd::ManagerParams params;
    params.gc_dead_threshold = 16;
    const int n = 8;
    bdd::Manager mgr(n, params);
    std::mt19937_64 rng(0x6d);

    net::Network network;
    net::HashedNetworkBuilder builder(network);
    std::vector<net::Signal> leaves;
    for (int i = 0; i < n; ++i) {
        leaves.push_back({network.add_input(std::string("x").append(std::to_string(i))), false});
    }
    BddDecomposer decomposer(mgr, builder, leaves, EngineParams{});

    std::vector<TruthTable> oracles;
    for (int k = 0; k < 8; ++k) {
        oracles.push_back(TruthTable::random(n, rng));
        const Bdd f = mgr.from_truth_table(oracles.back());
        network.add_output(std::string("f").append(std::to_string(k)),
                           builder.realize(decomposer.decompose(f)));
    }
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); m += 5) {
        std::vector<bool> input;
        for (int i = 0; i < n; ++i) input.push_back((m >> i) & 1);
        const auto out = simulate(network, input);
        for (std::size_t k = 0; k < oracles.size(); ++k) {
            ASSERT_EQ(out[k], oracles[k].get_bit(m)) << "output " << k;
        }
    }
}

}  // namespace
}  // namespace bdsmaj::decomp
