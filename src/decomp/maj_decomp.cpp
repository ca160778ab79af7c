#include "decomp/maj_decomp.hpp"

#include <array>
#include <cassert>

#include "decomp/dominators.hpp"

namespace bdsmaj::decomp {

namespace {

using bdd::Bdd;
using bdd::Manager;

/// Use `restrict` (support-reducing) rather than `constrain` for the H/W
/// seeds of Eq. 3; both are valid generalized cofactors.
constexpr bool kSeedWithRestrict = true;

/// SIII-E superiority test between two decompositions: primary criterion is
/// total size; additionally, if every component of `a` is at least k times
/// smaller than the matching component of `b`, `a` dominates regardless.
bool locally_superior(Manager& mgr, const MajDecomposition& a,
                      const MajDecomposition& b, double k) {
    const double ka = k * static_cast<double>(a.size_fa(mgr));
    const double kb = k * static_cast<double>(a.size_fb(mgr));
    const double kc = k * static_cast<double>(a.size_fc(mgr));
    if (ka <= static_cast<double>(b.size_fa(mgr)) &&
        kb <= static_cast<double>(b.size_fb(mgr)) &&
        kc <= static_cast<double>(b.size_fc(mgr))) {
        return true;
    }
    return a.total_size(mgr) < b.total_size(mgr);
}

}  // namespace

MajDecomposition construct_majority(Manager& mgr, const Bdd& f, const Bdd& fa,
                                    bool use_restrict) {
    // Theorem 3.3 seeds: H = F|Fa, W = F|!Fa (generalized cofactors). The
    // care sets are non-empty unless Fa is constant, in which case the
    // cofactor against the empty set is replaced by F itself (the trivial
    // H = F solution of Theorem 3.2 is always valid).
    const Bdd not_fa = !fa;
    const Bdd h = fa.is_zero() ? f
                  : use_restrict ? mgr.restrict_to(f, fa)
                                 : mgr.constrain(f, fa);
    const Bdd w = fa.is_one() ? f
                  : use_restrict ? mgr.restrict_to(f, not_fa)
                                 : mgr.constrain(f, not_fa);
    // Theorem 3.2: Fb = ITE(Fa^F, F, H), Fc = ITE(Fa^F, F, W).
    const Bdd diff = mgr.apply_xor(fa, f);
    MajDecomposition d;
    d.fa = fa;
    d.fb = mgr.ite(diff, f, h);
    d.fc = mgr.ite(diff, f, w);
    assert(mgr.maj(d.fa, d.fb, d.fc) == f);
    return d;
}

bool balance_majority_once(Manager& mgr, [[maybe_unused]] const Bdd& f,
                           MajDecomposition& decomp, const XorDecompParams& xor_params) {
    bool improved = false;
    // All couples (X, Y) among Fa, Fb, Fc, as in Algorithm 1.
    const std::array<std::pair<Bdd*, Bdd*>, 3> pairs = {
        std::make_pair(&decomp.fb, &decomp.fc),
        std::make_pair(&decomp.fa, &decomp.fb),
        std::make_pair(&decomp.fa, &decomp.fc),
    };
    for (const auto& [px, py] : pairs) {
        Bdd& x = *px;
        Bdd& y = *py;
        const Bdd fx = mgr.apply_xor(x, y);
        if (fx.is_zero()) continue;  // X == Y: nothing to rebalance
        const XorSplit split = xor_decompose(mgr, fx, xor_params);
        if (split.trivial) continue;
        // Theorem 3.4 restructuring with (M, K) satisfying M ^ K = Fx.
        const Bdd x_opt = mgr.ite(fx, split.k, x);
        const Bdd y_opt = mgr.ite(fx, split.m, y);
        const std::size_t before = mgr.dag_size(x) + mgr.dag_size(y);
        const std::size_t after = mgr.dag_size(x_opt) + mgr.dag_size(y_opt);
        if (after < before) {
            x = x_opt;
            y = y_opt;
            decomp.invalidate_size_memo();
            improved = true;
            assert(mgr.maj(decomp.fa, decomp.fb, decomp.fc) == f);
        }
    }
    return improved;
}

std::optional<MajDecomposition> maj_decompose(Manager& mgr, const Bdd& f,
                                              const MajDecompParams& params) {
    if (f.is_constant()) return std::nullopt;
    DominatorAnalysis analysis(mgr, f);
    return maj_decompose(mgr, f, analysis, params);
}

std::optional<MajDecomposition> maj_decompose(Manager& mgr, const Bdd& f,
                                              const DominatorAnalysis& analysis,
                                              const MajDecompParams& params) {
    if (f.is_constant()) return std::nullopt;

    // (α): m-dominator candidates.
    const std::vector<bdd::NodeIndex> candidates = analysis.m_dominators(
        params.max_candidates, params.min_then_fanin, params.min_else_fanin);
    if (candidates.empty()) return std::nullopt;

    std::optional<MajDecomposition> best;
    for (const bdd::NodeIndex v : candidates) {
        // With complement edges the m-dominator may be used in either
        // polarity along different paths; Theorem 3.2 is valid for any Fa,
        // so both polarities are evaluated and (ω) keeps the winner.
        for (const bool complemented : {false, true}) {
            const Bdd node_fn = mgr.node_function(v);
            const Bdd fa = complemented ? !node_fn : node_fn;
            // (β): initial construction.
            MajDecomposition current = construct_majority(mgr, f, fa, kSeedWithRestrict);
            // (γ): cyclic balancing until no improvement or iteration limit.
            for (int iter = 0; iter < params.max_iterations; ++iter) {
                if (!balance_majority_once(mgr, f, current)) break;
            }
            assert(mgr.maj(current.fa, current.fb, current.fc) == f);
            // (ω): keep the best decomposition.
            if (!best || locally_superior(mgr, current, *best, params.k_local)) {
                best = std::move(current);
            }
        }
    }
    return best;
}

bool maj_globally_advantageous(Manager& mgr, const Bdd& f,
                               const MajDecomposition& decomp, double k_global) {
    const auto original = static_cast<double>(mgr.dag_size(f));
    return k_global * static_cast<double>(decomp.size_fa(mgr)) <= original &&
           k_global * static_cast<double>(decomp.size_fb(mgr)) <= original &&
           k_global * static_cast<double>(decomp.size_fc(mgr)) <= original;
}

}  // namespace bdsmaj::decomp
