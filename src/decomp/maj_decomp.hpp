#pragma once
// Majority logic decomposition on BDDs — the paper's core contribution
// (Section III, Algorithm 1).
//
// Given F, find Fa, Fb, Fc with F = Maj(Fa, Fb, Fc):
//   (α) candidate Fa roots = non-trivial m-dominators of F's BDD;
//   (β) initial construction (Theorems 3.2/3.3):
//         Fb = ITE(Fa ^ F, F, F|Fa),  Fc = ITE(Fa ^ F, F, F|!Fa)
//       with the generalized cofactor as H/W seed;
//   (γ) cyclic balancing (Theorem 3.4): for each pair (X, Y), XOR-decompose
//       Fx = X ^ Y into balanced (M, K) and restructure
//         X <- ITE(Fx, K, X),  Y <- ITE(Fx, M, Y),
//       iterated while the total size improves, at most `max_iterations`;
//   (ω) selection: smallest |Fa|+|Fb|+|Fc|, with the k-balance superiority
//       test of SIII-E as tie-breaking dominance condition.
//
// Every decomposition this module returns satisfies Maj(Fa,Fb,Fc) == F by
// construction; debug builds assert it at each phase.

#include <array>
#include <optional>
#include <utility>

#include "bdd/bdd.hpp"
#include "decomp/xor_decomp.hpp"

namespace bdsmaj::decomp {

struct MajDecompParams {
    int max_candidates = 8;   ///< m-dominator candidates to evaluate (α)
    int max_iterations = 5;   ///< balancing iterations (paper SIV-B: 5)
    double k_local = 1.5;     ///< local selection sizing factor (SIV-B)
    double k_global = 1.6;    ///< global acceptance sizing factor (SIV-B)
    std::uint32_t min_then_fanin = 1;   ///< condition (ii) tightening knobs
    std::uint32_t min_else_fanin = 1;
};

struct MajDecomposition {
    bdd::Bdd fa, fb, fc;
    // Selection and balancing re-query component sizes many times per
    // candidate; sizes are memoized per component and recomputed only when
    // the component's edge changes (the handles pin the functions, so an
    // unchanged edge always denotes the same function).
    [[nodiscard]] std::size_t size_fa(bdd::Manager& mgr) const { return memo_size(0, fa, mgr); }
    [[nodiscard]] std::size_t size_fb(bdd::Manager& mgr) const { return memo_size(1, fb, mgr); }
    [[nodiscard]] std::size_t size_fc(bdd::Manager& mgr) const { return memo_size(2, fc, mgr); }
    [[nodiscard]] std::size_t total_size(bdd::Manager& mgr) const {
        return size_fa(mgr) + size_fb(mgr) + size_fc(mgr);
    }
    /// Must be called after assigning to fa/fb/fc. Edge comparison alone is
    /// not a safe staleness check: a garbage-collected node slot can be
    /// recycled into a different function with the same edge value.
    void invalidate_size_memo() const {
        for (auto& [edge, size] : size_memo_) edge = bdd::kEdgeInvalid;
    }

private:
    [[nodiscard]] std::size_t memo_size(int i, const bdd::Bdd& f,
                                        bdd::Manager& mgr) const {
        auto& [edge, size] = size_memo_[static_cast<std::size_t>(i)];
        if (edge != f.edge()) {
            edge = f.edge();
            size = mgr.dag_size(f);
        }
        return size;
    }
    mutable std::array<std::pair<bdd::Edge, std::size_t>, 3> size_memo_{
        {{bdd::kEdgeInvalid, 0}, {bdd::kEdgeInvalid, 0}, {bdd::kEdgeInvalid, 0}}};
};

/// (β)-phase: construct Fb, Fc for a given Fa per Theorem 3.2 with the
/// Eq. 3 seeds. Exposed for tests and for callers with their own Fa choice.
[[nodiscard]] MajDecomposition construct_majority(bdd::Manager& mgr,
                                                  const bdd::Bdd& f,
                                                  const bdd::Bdd& fa,
                                                  bool use_restrict = true);

/// (γ)-phase: one balancing sweep over all pairs; returns true if any pair
/// improved. `decomp` is updated in place and stays a valid decomposition.
bool balance_majority_once(bdd::Manager& mgr, const bdd::Bdd& f,
                           MajDecomposition& decomp,
                           const XorDecompParams& xor_params = {});

class DominatorAnalysis;

/// Full Algorithm 1. Returns the best decomposition over all m-dominator
/// candidates, or nullopt when no candidate exists.
[[nodiscard]] std::optional<MajDecomposition> maj_decompose(
    bdd::Manager& mgr, const bdd::Bdd& f, const MajDecompParams& params = {});

/// Same, reusing a dominator analysis of `f` the caller already computed
/// (the decomposition engine runs one per recursion step anyway).
[[nodiscard]] std::optional<MajDecomposition> maj_decompose(
    bdd::Manager& mgr, const bdd::Bdd& f, const DominatorAnalysis& analysis,
    const MajDecompParams& params = {});

/// Global acceptance gate (SIV-B): every component at least k_global times
/// smaller than the undecomposed |F|.
[[nodiscard]] bool maj_globally_advantageous(bdd::Manager& mgr, const bdd::Bdd& f,
                                             const MajDecomposition& decomp,
                                             double k_global = 1.6);

}  // namespace bdsmaj::decomp
