// Generalized cofactor (constrain / restrict) and node-redirection tests.
// These operators carry the paper's (β)-phase (Eq. 3 seeds) and the
// dominator quotients, so their contracts are checked exhaustively.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "bdd/bdd.hpp"
#include "tt/truth_table.hpp"

namespace bdsmaj::bdd {
namespace {

using tt::TruthTable;

class GcfTest : public ::testing::TestWithParam<int> {
protected:
    int n() const { return GetParam(); }
};

// The defining property of any generalized cofactor: agreement on the care
// set.  For every minterm where c holds, (F|c)(m) == F(m).
TEST_P(GcfTest, ConstrainAgreesOnCareSet) {
    std::mt19937_64 rng(101 + n());
    Manager mgr(n());
    for (int trial = 0; trial < 30; ++trial) {
        const TruthTable ft = TruthTable::random(n(), rng);
        TruthTable ct = TruthTable::random(n(), rng);
        if (ct.is_const0()) ct.set_bit(0);
        const Bdd f = mgr.from_truth_table(ft);
        const Bdd c = mgr.from_truth_table(ct);
        const TruthTable rt = mgr.to_truth_table(mgr.constrain(f, c), n());
        for (std::uint64_t m = 0; m < ft.num_bits(); ++m) {
            if (ct.get_bit(m)) {
                EXPECT_EQ(rt.get_bit(m), ft.get_bit(m)) << "minterm " << m;
            }
        }
    }
}

TEST_P(GcfTest, RestrictAgreesOnCareSet) {
    std::mt19937_64 rng(103 + n());
    Manager mgr(n());
    for (int trial = 0; trial < 30; ++trial) {
        const TruthTable ft = TruthTable::random(n(), rng);
        TruthTable ct = TruthTable::random(n(), rng);
        if (ct.is_const0()) ct.set_bit(1);
        const Bdd f = mgr.from_truth_table(ft);
        const Bdd c = mgr.from_truth_table(ct);
        const TruthTable rt = mgr.to_truth_table(mgr.restrict_to(f, c), n());
        for (std::uint64_t m = 0; m < ft.num_bits(); ++m) {
            if (ct.get_bit(m)) {
                EXPECT_EQ(rt.get_bit(m), ft.get_bit(m)) << "minterm " << m;
            }
        }
    }
}

// ITE(c, F|c, F|!c) == F : the reconstruction identity behind Theorem 3.3.
TEST_P(GcfTest, ConstrainReconstructsThroughIte) {
    std::mt19937_64 rng(107 + n());
    Manager mgr(n());
    for (int trial = 0; trial < 30; ++trial) {
        const TruthTable ft = TruthTable::random(n(), rng);
        TruthTable ct = TruthTable::random(n(), rng);
        if (ct.is_const0() || ct.is_const1()) continue;
        const Bdd f = mgr.from_truth_table(ft);
        const Bdd c = mgr.from_truth_table(ct);
        const Bdd rebuilt =
            mgr.ite(c, mgr.constrain(f, c), mgr.constrain(f, !c));
        EXPECT_EQ(rebuilt, f);
    }
}

TEST_P(GcfTest, RestrictNeverEnlargesSupport) {
    std::mt19937_64 rng(109 + n());
    Manager mgr(n());
    for (int trial = 0; trial < 30; ++trial) {
        const Bdd f = mgr.from_truth_table(TruthTable::random(n(), rng));
        TruthTable ct = TruthTable::random(n(), rng);
        if (ct.is_const0()) ct.set_bit(0);
        const Bdd c = mgr.from_truth_table(ct);
        const Bdd r = mgr.restrict_to(f, c);
        const auto rs = mgr.support_vars(r);
        const auto fs = mgr.support_vars(f);
        for (const int v : rs) {
            EXPECT_TRUE(std::find(fs.begin(), fs.end(), v) != fs.end())
                << "restrict introduced variable " << v;
        }
    }
}

TEST_P(GcfTest, ConstrainLiteralEqualsShannonCofactor) {
    std::mt19937_64 rng(113 + n());
    Manager mgr(n());
    for (int trial = 0; trial < 10; ++trial) {
        const TruthTable ft = TruthTable::random(n(), rng);
        const Bdd f = mgr.from_truth_table(ft);
        for (int v = 0; v < n(); ++v) {
            EXPECT_EQ(mgr.to_truth_table(mgr.constrain(f, mgr.var_bdd(v)), n()),
                      ft.cofactor(v, true));
            EXPECT_EQ(mgr.to_truth_table(mgr.constrain(f, mgr.nvar_bdd(v)), n()),
                      ft.cofactor(v, false));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GcfTest, ::testing::Values(2, 3, 4, 6, 8));

TEST(Gcf, ConstrainIdentities) {
    Manager mgr(4);
    std::mt19937_64 rng(127);
    const Bdd f = mgr.from_truth_table(TruthTable::random(4, rng));
    EXPECT_EQ(mgr.constrain(f, mgr.one()), f);
    EXPECT_EQ(mgr.constrain(f, f), mgr.one()) << "F|F = 1";
    EXPECT_EQ(mgr.constrain(f, !f), mgr.zero()) << "F|F' = 0";
    EXPECT_THROW((void)mgr.constrain(f, mgr.zero()), std::invalid_argument);
    EXPECT_THROW((void)mgr.restrict_to(f, mgr.zero()), std::invalid_argument);
}

TEST(Gcf, PaperExampleSeeds) {
    // Paper SIII-C example: F = ab + bc + ac, Fa = a.
    // H = F|a = b + c ; W = F|a' = bc.
    Manager mgr(3);
    const Bdd a = mgr.var_bdd(0), b = mgr.var_bdd(1), c = mgr.var_bdd(2);
    const Bdd f = mgr.maj(a, b, c);
    EXPECT_EQ(mgr.constrain(f, a), b | c);
    EXPECT_EQ(mgr.constrain(f, !a), b & c);
    EXPECT_EQ(mgr.restrict_to(f, a), b | c);
    EXPECT_EQ(mgr.restrict_to(f, !a), b & c);
}

// ---------------------------------------------------------------------------
// replace_node_with_const: the dominator quotient F_{v->const}.
// ---------------------------------------------------------------------------

TEST(ReplaceNode, RedirectingRootGivesConstant) {
    Manager mgr(3);
    const Bdd f = mgr.var_bdd(0) & mgr.var_bdd(1);
    const NodeIndex root = edge_index(f.edge());
    EXPECT_TRUE(mgr.replace_node_with_const(f, root, true).is_one());
    EXPECT_TRUE(mgr.replace_node_with_const(f, root, false).is_zero());
}

TEST(ReplaceNode, AndDecompositionThroughQuotient) {
    // F = x0 & (x1 | x2). The node for (x1|x2) is a 1-dominator;
    // F_{v->1} = x0 and F = F_{v->1} & Fv must hold.
    Manager mgr(3);
    const Bdd inner = mgr.var_bdd(1) | mgr.var_bdd(2);
    const Bdd f = mgr.var_bdd(0) & inner;
    const NodeIndex v = edge_index(inner.edge());
    const Bdd quotient = mgr.replace_node_with_const(f, v, true);
    EXPECT_EQ(quotient, mgr.var_bdd(0));
    EXPECT_EQ(mgr.apply_and(quotient, inner), f);
}

TEST(ReplaceNode, RandomRedirectionsPreserveOffNodeBehaviour) {
    // For every internal node v of a random F and either constant,
    // F_{v->c} evaluated on minterms whose evaluation path misses v must
    // equal F. We check the weaker-but-complete functional identity:
    // replacing v by its own function is the identity.
    std::mt19937_64 rng(131);
    for (int n : {4, 6, 8}) {
        Manager mgr(n);
        for (int trial = 0; trial < 10; ++trial) {
            const Bdd f = mgr.from_truth_table(TruthTable::random(n, rng));
            mgr.visit_nodes(f, [&](NodeIndex v) {
                const Bdd fv = mgr.node_function(v);
                const Bdd g1 = mgr.replace_node_with_const(f, v, true);
                const Bdd g0 = mgr.replace_node_with_const(f, v, false);
                // Composition identity: F = ITE(Fv, F_{v->1}, F_{v->0})
                // holds when v's function controls which branch is taken on
                // every path through v... it does NOT hold in general, but
                // the two quotients must at least agree with F off v:
                // ITE over the node function is exact when v is the only
                // node computing Fv in F's DAG, which canonicity guarantees.
                EXPECT_EQ(mgr.ite(fv, g1, g0), f);
            });
        }
    }
}

TEST(ReplaceNode, GuardThrowMidReplaceLeavesNoStaleThreadState) {
    // Regression: replace_node_with_const once memoized into thread_local
    // scratch and skipped the touched-entry cleanup when make_node threw
    // out of replace_rec (max_live_nodes guard, injected fault). The stale
    // entries — edges into the poisoned, destroyed manager — were then
    // served as memo hits to the next manager on the same thread: wild
    // edges, wrong quotients, out-of-bounds ref updates. The memo is
    // per-Manager scratch now; this keeps the guard-unwind path covered.
    std::mt19937_64 rng(977);
    const TruthTable ft = TruthTable::random(8, rng);
    const TruthTable gt = TruthTable::random(8, rng);
    // Fresh-manager probe: every quotient identity must hold. With the
    // stale-memo bug this read edges left over from a poisoned manager.
    const auto probe_fresh_manager = [&] {
        Manager mgr(8);
        const Bdd g = mgr.from_truth_table(gt);
        mgr.visit_nodes(g, [&](NodeIndex v) {
            const Bdd fv = mgr.node_function(v);
            const Bdd g1 = mgr.replace_node_with_const(g, v, true);
            const Bdd g0 = mgr.replace_node_with_const(g, v, false);
            EXPECT_EQ(mgr.ite(fv, g1, g0), g) << "stale memo from guard unwind";
        });
    };
    // Step the ceiling by 1 so the guard trips at every possible recursion
    // depth — shallow trips leave no memo entries behind and would not
    // have exercised the bug.
    int trips = 0;
    for (std::size_t ceiling = 24; ceiling <= 2048 && trips < 25; ++ceiling) {
        ManagerParams params;
        params.max_live_nodes = ceiling;
        Manager guarded(8, params);
        Bdd f;
        try {
            f = guarded.from_truth_table(ft);
        } catch (const ResourceExhausted&) {
            continue;  // ceiling too small even for construction
        }
        std::vector<NodeIndex> nodes;
        guarded.visit_nodes(f, [&](NodeIndex v) { nodes.push_back(v); });
        // Keep every quotient alive so the node count grows monotonically:
        // any ceiling that admits construction eventually trips mid-replace.
        std::vector<Bdd> held;
        try {
            for (const NodeIndex v : nodes) {
                held.push_back(guarded.replace_node_with_const(f, v, true));
                held.push_back(guarded.replace_node_with_const(f, v, false));
            }
        } catch (const ResourceExhausted&) {
            ++trips;  // unwound mid-recursion with live memo entries
            held.clear();
            probe_fresh_manager();
        }
    }
    ASSERT_GE(trips, 10) << "sweep never tripped the guard inside replace";
}

/// Both quotients of every node of the function `t`, taken on a fresh
/// manager: the interleaving-free reference.
std::vector<TruthTable> reference_quotients(const TruthTable& t, int n) {
    Manager fresh(n);
    const Bdd f = fresh.from_truth_table(t);
    std::vector<NodeIndex> nodes;
    fresh.visit_nodes(f, [&](NodeIndex v) { nodes.push_back(v); });
    std::vector<TruthTable> out;
    for (const NodeIndex v : nodes) {
        for (const bool value : {true, false}) {
            out.push_back(fresh.to_truth_table(fresh.replace_node_with_const(f, v, value), n));
        }
    }
    return out;
}

TEST(ReplaceNode, InterleavedManagersAndResetKeepMemosApart) {
    // The quotient memo is per-Manager scratch. Calls on two managers,
    // interleaved on one thread, with one of them reset() mid-sequence so
    // its node slots come back holding other functions, must each agree
    // with the same quotients taken on a fresh manager. (Isomorphic DAGs
    // visit their nodes in the same order, so position i matches.)
    constexpr int kVars = 7;
    std::mt19937_64 rng(4242);
    struct Job {
        Manager* mgr = nullptr;
        Bdd f;
        std::vector<NodeIndex> nodes;
        std::vector<TruthTable> expected;
    };
    const auto start = [&](Manager& mgr) {
        const TruthTable t = TruthTable::random(kVars, rng);
        Job job{&mgr, mgr.from_truth_table(t), {}, reference_quotients(t, kVars)};
        mgr.visit_nodes(job.f, [&](NodeIndex v) { job.nodes.push_back(v); });
        return job;
    };
    const auto check = [&](Job& job, std::size_t i) {
        if (i >= job.nodes.size()) return;
        for (const bool value : {true, false}) {
            const Bdd q = job.mgr->replace_node_with_const(job.f, job.nodes[i], value);
            EXPECT_EQ(job.mgr->to_truth_table(q, kVars),
                      job.expected[2 * i + (value ? 0 : 1)])
                << "node position " << i;
        }
    };
    Manager a(kVars);
    Manager b(kVars);
    int resets = 0;
    for (int round = 0; round < 4; ++round) {
        Job ja = start(a);
        Job jb = start(b);
        const std::size_t steps = std::max(ja.nodes.size(), jb.nodes.size());
        for (std::size_t i = 0; i < steps; ++i) {
            check(ja, i);
            if (i == steps / 2) {
                jb = Job{};  // release b's handles before the reset
                b.reset(kVars);
                jb = start(b);
                ++resets;
            }
            check(jb, i);
        }
    }
    EXPECT_EQ(resets, 4);
}

TEST(ReplaceNode, XorQuotientIdentityOnXDominator) {
    // F = (x0 & x1) ^ (x2 | x3): the node for (x2|x3) lies on every path,
    // so F_{v->0} ^ Fv == F.
    Manager mgr(4);
    const Bdd left = mgr.var_bdd(0) & mgr.var_bdd(1);
    const Bdd right = mgr.var_bdd(2) | mgr.var_bdd(3);
    const Bdd f = left ^ right;
    const NodeIndex v = edge_index(right.edge());
    const Bdd g = mgr.replace_node_with_const(f, v, false);
    EXPECT_EQ(mgr.apply_xor(g, right), f);
}

}  // namespace
}  // namespace bdsmaj::bdd
