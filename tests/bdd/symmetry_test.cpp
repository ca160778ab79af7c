// Symmetry-group detection tests: the sifting-time detector (adjacent-level
// structural check seeded by the interaction matrix, unioned transitively)
// against a brute-force truth-table oracle, plus the block-sifting path.
//
// The detector's contract is deliberately adjacency-scoped: it certifies
// exactly the symmetric pairs that sit on ADJACENT levels of the current
// order (transitive closure then merges chains into groups). Pairs that are
// symmetric but never adjacent may be missed — that only costs sift
// quality, never correctness — so the oracle asserts soundness for every
// reported group and completeness only for adjacent interacting pairs.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "benchgen/symm.hpp"
#include "network/simulate.hpp"
#include "tt/truth_table.hpp"

namespace bdsmaj::bdd {
namespace {

using tt::TruthTable;

/// Brute-force oracle: variables a and b are symmetric for every root iff
/// swapping them fixes every root, i.e. f|a=0,b=1 == f|a=1,b=0.
bool tt_pair_symmetric(const std::vector<TruthTable>& roots, int a, int b) {
    for (const TruthTable& t : roots) {
        if (!(t.cofactor(a, false).cofactor(b, true) ==
              t.cofactor(a, true).cofactor(b, false))) {
            return false;
        }
    }
    return true;
}

/// Make t symmetric in {i, j} by construction: route the pair through its
/// (OR, AND) census so f depends on (x_i, x_j) only via their ones count.
TruthTable symmetrized(const TruthTable& t, int n, int i, int j) {
    const TruthTable xi = TruthTable::var(n, i);
    const TruthTable xj = TruthTable::var(n, j);
    const TruthTable f00 = t.cofactor(i, false).cofactor(j, false);
    const TruthTable f11 = t.cofactor(i, true).cofactor(j, true);
    const TruthTable fmix = t.cofactor(i, false).cofactor(j, true);
    return (~xi & ~xj & f00) | (xi & xj & f11) | ((xi ^ xj) & fmix);
}

/// group index of v in `groups`, or -1 when v is in no (non-singleton) group.
int group_of(const std::vector<std::vector<int>>& groups, int v) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
        if (std::find(groups[g].begin(), groups[g].end(), v) != groups[g].end()) {
            return static_cast<int>(g);
        }
    }
    return -1;
}

TEST(Symmetry, TotallySymmetricFunctionsFormOneGroup) {
    {
        Manager mgr(3);
        const Bdd maj = (mgr.var_bdd(0) & mgr.var_bdd(1)) |
                        (mgr.var_bdd(1) & mgr.var_bdd(2)) |
                        (mgr.var_bdd(0) & mgr.var_bdd(2));
        ASSERT_TRUE(maj.valid());
        const auto groups = mgr.compute_symmetry_groups();
        ASSERT_EQ(groups.size(), 1u);
        EXPECT_EQ(groups[0], (std::vector<int>{0, 1, 2}));
        EXPECT_EQ(mgr.check_integrity(), "");
    }
    {
        Manager mgr(5);
        Bdd parity = mgr.var_bdd(0);
        for (int v = 1; v < 5; ++v) parity = mgr.apply_xor(parity, mgr.var_bdd(v));
        const auto groups = mgr.compute_symmetry_groups();
        ASSERT_EQ(groups.size(), 1u);
        EXPECT_EQ(groups[0], (std::vector<int>{0, 1, 2, 3, 4}));
        EXPECT_TRUE(parity.valid());
    }
}

TEST(Symmetry, ExternallyHeldLiteralBreaksItsPairs) {
    // x1 held as a root is asymmetric in every pair containing it, so the
    // {0,1,2} majority group cannot form across the adjacent pairs (0,1)
    // and (1,2); the non-adjacent (0,2) symmetry is (by contract) missed.
    Manager mgr(3);
    const Bdd maj = (mgr.var_bdd(0) & mgr.var_bdd(1)) |
                    (mgr.var_bdd(1) & mgr.var_bdd(2)) |
                    (mgr.var_bdd(0) & mgr.var_bdd(2));
    const Bdd literal = mgr.var_bdd(1);
    ASSERT_TRUE(maj.valid() && literal.valid());
    const auto groups = mgr.compute_symmetry_groups();
    EXPECT_TRUE(groups.empty());
}

class SymmetryOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(SymmetryOracleTest, GroupsAgreeWithTruthTableOracleAcrossInterleavings) {
    const int n = GetParam();
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        std::mt19937_64 rng(1009 * seed + static_cast<unsigned>(n));
        Manager mgr(n);
        std::vector<TruthTable> oracle;
        std::vector<Bdd> funcs;
        // One deliberately pair-symmetric function (so groups exist often)
        // plus random noise (so asymmetric pairs exist too).
        const int i = static_cast<int>(rng() % static_cast<unsigned>(n - 1));
        const int j = i + 1 + static_cast<int>(rng() % static_cast<unsigned>(n - i - 1));
        oracle.push_back(symmetrized(TruthTable::random(n, rng), n, i, j));
        oracle.push_back(TruthTable::random(n, rng));
        for (const TruthTable& t : oracle) funcs.push_back(mgr.from_truth_table(t));

        const auto verify_groups = [&](const char* what) {
            const std::vector<std::vector<int>> groups = mgr.compute_symmetry_groups();
            ASSERT_EQ(mgr.check_integrity(), "") << what;
            // Soundness: every pair inside every reported group is
            // truth-table symmetric for all roots.
            for (const std::vector<int>& g : groups) {
                ASSERT_GE(g.size(), 2u) << what;
                for (std::size_t a = 0; a < g.size(); ++a) {
                    for (std::size_t b = a + 1; b < g.size(); ++b) {
                        if (g[a] >= n || g[b] >= n) continue;  // post-new_var vars
                        EXPECT_TRUE(tt_pair_symmetric(oracle, g[a], g[b]))
                            << what << ": group pair (" << g[a] << "," << g[b]
                            << ") seed " << seed;
                    }
                }
            }
            // Adjacency-scoped completeness: a symmetric interacting pair on
            // adjacent levels must land in one group.
            const std::vector<int> order = mgr.current_order();
            for (std::size_t lvl = 0; lvl + 1 < order.size(); ++lvl) {
                const int a = order[lvl];
                const int b = order[lvl + 1];
                if (a >= n || b >= n) continue;
                if (!mgr.vars_interact(a, b)) continue;
                if (!tt_pair_symmetric(oracle, a, b)) continue;
                const int ga = group_of(groups, a);
                EXPECT_TRUE(ga >= 0 && ga == group_of(groups, b))
                    << what << ": adjacent symmetric pair (" << a << "," << b
                    << ") not grouped, seed " << seed;
            }
            // The detection must never disturb the functions themselves.
            for (std::size_t f = 0; f < funcs.size(); ++f) {
                ASSERT_EQ(mgr.to_truth_table(funcs[f], n), oracle[f]) << what;
            }
        };

        verify_groups("initial");
        mgr.sift();
        verify_groups("after sift");
        mgr.gc();
        verify_groups("after gc");
        (void)mgr.new_var();  // groups invalidated and re-detected
        verify_groups("after new_var");
        mgr.sift();
        verify_groups("after second sift");
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymmetryOracleTest, ::testing::Values(4, 6, 8));

TEST(Symmetry, SymmetrySiftMovesGroupsAsBlocksAndPreservesFunctions) {
    // parity(x0..x5) forms one 6-variable group; x6 & x7 gives the sift
    // pass neighbor units for the block to travel past. Lower-bound pruning
    // must be off: a parity BDD has the same size in every order, so the
    // bound (correctly) proves no move can help and the block would never
    // travel at all.
    ManagerParams params;
    params.sift_symmetry = true;
    params.sift_lower_bound = false;
    Manager mgr(8, params);
    std::mt19937_64 rng(431);
    Bdd parity = mgr.var_bdd(0);
    for (int v = 1; v < 6; ++v) parity = mgr.apply_xor(parity, mgr.var_bdd(v));
    const Bdd tail = mgr.var_bdd(6) & mgr.var_bdd(7);
    const TruthTable parity_tt = mgr.to_truth_table(parity, 8);
    const TruthTable tail_tt = mgr.to_truth_table(tail, 8);

    mgr.sift();

    const ReorderStats& rs = mgr.reorder_stats();
    EXPECT_GE(rs.sym_groups, 1u) << "the parity group was not detected";
    EXPECT_GT(rs.sym_pairs, 0u);
    EXPECT_GT(rs.sym_block_swaps, 0u) << "the group never moved as a block";
    EXPECT_EQ(mgr.check_integrity(), "");
    EXPECT_EQ(mgr.to_truth_table(parity, 8), parity_tt);
    EXPECT_EQ(mgr.to_truth_table(tail, 8), tail_tt);
    // Group members must sit on contiguous levels after the sift.
    const std::vector<std::vector<int>> groups = mgr.symmetry_groups();
    ASSERT_FALSE(groups.empty());
    const std::vector<int> order = mgr.current_order();
    for (const std::vector<int>& g : groups) {
        std::vector<std::size_t> levels;
        for (std::size_t lvl = 0; lvl < order.size(); ++lvl) {
            if (std::find(g.begin(), g.end(), order[lvl]) != g.end()) {
                levels.push_back(lvl);
            }
        }
        ASSERT_EQ(levels.size(), g.size());
        EXPECT_EQ(levels.back() - levels.front() + 1, levels.size())
            << "group split across non-contiguous levels";
    }
}

TEST(Symmetry, SymmetricSiftingAgreesWithPlainSiftingOnAsymmetricInputs) {
    // When no symmetric pairs exist every unit is a singleton, and the
    // unit-based pass must reproduce the plain sift exactly: same final
    // order, same size. Random functions on distinct-support odd structure
    // keep accidental symmetries away.
    const int n = 9;
    for (std::uint64_t seed = 11; seed <= 14; ++seed) {
        std::mt19937_64 rng(seed);
        const TruthTable t1 = TruthTable::random(n, rng);
        ManagerParams sym_params;
        sym_params.sift_symmetry = true;
        Manager plain(n);
        Manager sym(n, sym_params);
        const Bdd f_plain = plain.from_truth_table(t1);
        const Bdd f_sym = sym.from_truth_table(t1);
        plain.sift();
        sym.sift();
        if (sym.reorder_stats().sym_pairs == 0) {
            EXPECT_EQ(plain.current_order(), sym.current_order()) << seed;
            EXPECT_EQ(plain.live_node_count(), sym.live_node_count()) << seed;
        }
        EXPECT_EQ(plain.to_truth_table(f_plain, n), t1);
        EXPECT_EQ(sym.to_truth_table(f_sym, n), t1);
        EXPECT_EQ(sym.check_integrity(), "");
    }
}

TEST(Symmetry, BlockSiftingAtLeastHalvesSwapsOnSymmetricCircuits) {
    // The parity tree, ones counter and voter generators each carry one
    // total symmetry group. Symmetry-aware sifting must find a group on
    // every one, cut the structural swap count at least in half (in
    // practice to zero: one block spanning every variable has nowhere to
    // move), and reach the same post-sift size as plain sifting, because
    // on a totally symmetric function every order is equally good.
    const net::Network circuits[] = {benchgen::make_parity_tree(16),
                                     benchgen::make_ones_counter(12),
                                     benchgen::make_voter(13)};
    for (const net::Network& network : circuits) {
        const int n = static_cast<int>(network.inputs().size());
        ManagerParams sym_params;
        sym_params.sift_symmetry = true;
        Manager plain(n);
        Manager sym(n, sym_params);
        // Held so both sifts reorder live roots.
        const std::vector<Bdd> plain_roots = net::network_to_bdds(network, plain);
        const std::vector<Bdd> sym_roots = net::network_to_bdds(network, sym);
        plain.sift();
        sym.sift();
        const std::string& name = network.model_name();
        EXPECT_GE(sym.reorder_stats().sym_groups, 1u) << name;
        EXPECT_LE(2 * sym.reorder_stats().swaps, plain.reorder_stats().swaps)
            << name << ": " << plain.reorder_stats().swaps << " -> "
            << sym.reorder_stats().swaps << " swaps";
        EXPECT_EQ(plain.live_node_count(), sym.live_node_count()) << name;
    }
}

}  // namespace
}  // namespace bdsmaj::bdd
