// Manager::reset() fresh-equivalence: decompose_network reuses one manager
// for every supernode of a flow, so a reset manager must be
// indistinguishable from a newly constructed one — same node construction
// behavior, identity variable order, zeroed telemetry — because the cone
// cache's determinism argument relies on equal canonical cones driving a
// fresh-or-reset manager through the identical call sequence.

#include <gtest/gtest.h>

#include <vector>

#include "bdd/bdd.hpp"

namespace bdsmaj::bdd {
namespace {

/// Build a function with enough structure to populate tables, the computed
/// cache, and (after sift) a permuted variable order.
Bdd build_workload(Manager& mgr) {
    Bdd f = mgr.zero();
    for (int v = 0; v + 1 < mgr.num_vars(); v += 2) {
        f = f | (mgr.var_bdd(v) & mgr.var_bdd(v + 1));
    }
    return f ^ mgr.var_bdd(0);
}

TEST(ManagerReset, RestoresFreshStateAfterWorkload) {
    Manager mgr(8);
    {
        const Bdd f = build_workload(mgr);
        mgr.sift();
        EXPECT_GT(mgr.live_node_count(), 0u);
        EXPECT_GT(mgr.reorder_stats().swaps + mgr.reorder_stats().fast_swaps, 0u);
        (void)f;
    }  // release every handle before reset
    mgr.reset(8);

    EXPECT_EQ(mgr.num_vars(), 8);
    EXPECT_EQ(mgr.live_node_count(), 0u);
    EXPECT_EQ(mgr.peak_node_count(), 0u);
    EXPECT_EQ(mgr.reorder_stats().swaps, 0u);
    EXPECT_EQ(mgr.reorder_stats().fast_swaps, 0u);
    // Identity order, like a fresh construction (sift had permuted it).
    for (int v = 0; v < 8; ++v) {
        EXPECT_EQ(mgr.level_of_var(v), v);
        EXPECT_EQ(mgr.var_at_level(v), v);
    }
    EXPECT_EQ(mgr.check_integrity(), "") << "reset left a broken invariant";
}

TEST(ManagerReset, ResetManagerBehavesLikeFreshOne) {
    // The strong form of fresh-equivalence: run the same workload on a
    // fresh manager and on a reset one (that previously ran a DIFFERENT
    // workload) and compare observable outcomes — dag sizes, peak counts,
    // sift results.
    Manager fresh(6);
    const Bdd ff = build_workload(fresh);
    fresh.sift();
    const std::size_t fresh_dag = fresh.dag_size(ff);
    const std::vector<int> fresh_order = fresh.current_order();

    Manager reused(10);
    {
        // A different var count and a different function first.
        const Bdd g = reused.var_bdd(9) & (reused.var_bdd(3) ^ reused.var_bdd(7));
        reused.sift();
        (void)g;
    }
    reused.reset(6);
    const Bdd rf = build_workload(reused);
    reused.sift();
    EXPECT_EQ(reused.dag_size(rf), fresh_dag);
    EXPECT_EQ(reused.current_order(), fresh_order);
    EXPECT_EQ(reused.peak_node_count(), fresh.peak_node_count());
    EXPECT_EQ(reused.reorder_stats().swaps, fresh.reorder_stats().swaps);
    EXPECT_EQ(reused.check_integrity(), "");
}

TEST(ManagerReset, CanGrowAndShrinkVariableCount) {
    Manager mgr(4);
    { const Bdd f = build_workload(mgr); (void)f; }
    mgr.reset(12);
    EXPECT_EQ(mgr.num_vars(), 12);
    {
        // Scoped: reset() requires every handle released, and x's
        // destructor must not run against the shrunken store.
        const Bdd x = mgr.var_bdd(11);
        EXPECT_FALSE(x.is_zero());
        EXPECT_EQ(mgr.check_integrity(), "");
        const Bdd f = mgr.var_bdd(0) & x;
        (void)f;
    }
    mgr.reset(2);
    EXPECT_EQ(mgr.num_vars(), 2);
    EXPECT_THROW((void)mgr.var_bdd(2), std::out_of_range);
    EXPECT_EQ(mgr.check_integrity(), "");
}

}  // namespace
}  // namespace bdsmaj::bdd
