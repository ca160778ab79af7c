// Functional verification of the symmetric-heavy generators against
// popcount oracles, plus the end-to-end claim they exist for: the symmetry
// preset serves their cones through the ones-counting MAJ construction and
// symmetry-aware sifting finds their variable groups.

#include "benchgen/symm.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <random>

#include "decomp/flow.hpp"
#include "network/cec.hpp"
#include "network/simulate.hpp"

namespace bdsmaj::benchgen {
namespace {

using net::Network;

std::vector<bool> bits_of(std::uint64_t value, int n) {
    std::vector<bool> v(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = ((value >> i) & 1) != 0;
    return v;
}

TEST(Symm, ParityTreeMatchesPopcountParity) {
    for (const int n : {1, 2, 7, 16}) {
        const Network net = make_parity_tree(n);
        ASSERT_EQ(net.outputs().size(), 1u);
        std::mt19937_64 rng(77 + static_cast<unsigned>(n));
        for (int trial = 0; trial < 50; ++trial) {
            const std::uint64_t x = rng() & ((1ull << n) - 1);
            const std::vector<bool> out = simulate(net, bits_of(x, n));
            EXPECT_EQ(out[0], (std::popcount(x) & 1) != 0) << "n=" << n;
        }
    }
}

TEST(Symm, OnesCounterMatchesPopcount) {
    for (const int n : {1, 3, 8, 13}) {
        const Network net = make_ones_counter(n);
        std::mt19937_64 rng(177 + static_cast<unsigned>(n));
        for (int trial = 0; trial < 50; ++trial) {
            const std::uint64_t x = rng() & ((1ull << n) - 1);
            const std::vector<bool> out = simulate(net, bits_of(x, n));
            std::uint64_t counted = 0;
            for (std::size_t i = 0; i < out.size(); ++i) {
                if (out[i]) counted |= std::uint64_t{1} << i;
            }
            EXPECT_EQ(counted, static_cast<std::uint64_t>(std::popcount(x))) << "n=" << n;
        }
    }
}

TEST(Symm, VoterMatchesMajority) {
    for (const int n : {3, 5, 9, 11}) {
        const Network net = make_voter(n);
        std::mt19937_64 rng(277 + static_cast<unsigned>(n));
        for (int trial = 0; trial < 80; ++trial) {
            const std::uint64_t x = rng() & ((1ull << n) - 1);
            const std::vector<bool> out = simulate(net, bits_of(x, n));
            EXPECT_EQ(out[0], std::popcount(x) > n / 2) << "n=" << n;
        }
    }
}

TEST(Symm, SymmetryPresetServesSymmetricConesAndFindsGroups) {
    for (const Network& input :
         {make_parity_tree(12), make_ones_counter(9), make_voter(9)}) {
        decomp::DecompFlowParams params;
        params.engine.preset = "symmetry";
        const decomp::DecompFlowResult r = decomp::decompose_network(input, params);
        EXPECT_TRUE(net::check_equivalent(input, r.network).equivalent) << input.model_name();
        EXPECT_GT(r.engine_stats.symmetric_steps, 0)
            << input.model_name() << ": no cone went through the symmetric strategy";
        EXPECT_GT(r.engine_stats.sift_sym_groups, 0)
            << input.model_name() << ": sifting never saw a symmetry group";
    }
}

}  // namespace
}  // namespace bdsmaj::benchgen
