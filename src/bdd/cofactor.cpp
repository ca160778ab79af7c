#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "bdd/bdd.hpp"

namespace bdsmaj::bdd {

namespace {

class OpGuard {
public:
    explicit OpGuard(int& depth) : depth_(depth) { ++depth_; }
    ~OpGuard() { --depth_; }
    OpGuard(const OpGuard&) = delete;
    OpGuard& operator=(const OpGuard&) = delete;

private:
    int& depth_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Generalized cofactors.
//
// `constrain` (Coudert-Berthet-Madre) and `restrict` (Coudert-Madre) both
// produce a function that agrees with f wherever c holds; the paper's (β)
// phase uses them as the initial H = F|Fa and W = F|!Fa seeds (Eq. 3).
// `restrict` additionally skips c-variables outside supp(f) so it never
// enlarges the support.
// ---------------------------------------------------------------------------

Edge Manager::constrain_rec(Edge f, Edge c) {
    if (c == kEdgeOne || edge_is_constant(f)) return f;
    if (c == kEdgeZero) throw std::invalid_argument("constrain: care set is empty");
    if (f == c) return kEdgeOne;
    if (f == edge_not(c)) return kEdgeZero;

    Edge cached;
    if (cache_lookup(CacheOp::kConstrain, f, c, kEdgeInvalid, &cached)) return cached;

    const std::uint32_t level = std::min(edge_level(f), edge_level(c));
    Edge f1, f0, c1, c0;
    cofactors_at(f, level, &f1, &f0);
    cofactors_at(c, level, &c1, &c0);

    Edge r;
    if (c1 == kEdgeZero) {
        r = constrain_rec(f0, c0);
    } else if (c0 == kEdgeZero) {
        r = constrain_rec(f1, c1);
    } else {
        const Edge t = constrain_rec(f1, c1);
        const Edge e = constrain_rec(f0, c0);
        r = make_node(level, t, e);
    }
    cache_insert(CacheOp::kConstrain, f, c, kEdgeInvalid, r);
    return r;
}

Edge Manager::restrict_rec(Edge f, Edge c) {
    if (c == kEdgeOne || edge_is_constant(f)) return f;
    if (c == kEdgeZero) throw std::invalid_argument("restrict: care set is empty");
    if (f == c) return kEdgeOne;
    if (f == edge_not(c)) return kEdgeZero;

    Edge cached;
    if (cache_lookup(CacheOp::kRestrict, f, c, kEdgeInvalid, &cached)) return cached;

    Edge r;
    if (edge_level(c) < edge_level(f)) {
        // c's top variable is outside supp(f): quantify it out of the care
        // set instead of pulling it into the result.
        const Edge c_or = ite_rec(edge_then(c), kEdgeOne, edge_else(c));
        r = restrict_rec(f, c_or);
    } else {
        const std::uint32_t level = std::min(edge_level(f), edge_level(c));
        Edge f1, f0, c1, c0;
        cofactors_at(f, level, &f1, &f0);
        cofactors_at(c, level, &c1, &c0);
        if (c1 == kEdgeZero) {
            r = restrict_rec(f0, c0);
        } else if (c0 == kEdgeZero) {
            r = restrict_rec(f1, c1);
        } else {
            const Edge t = restrict_rec(f1, c1);
            const Edge e = restrict_rec(f0, c0);
            r = make_node(level, t, e);
        }
    }
    cache_insert(CacheOp::kRestrict, f, c, kEdgeInvalid, r);
    return r;
}

Bdd Manager::constrain(const Bdd& f, const Bdd& c) {
    assert(f.manager() == this && c.manager() == this);
    Edge r;
    {
        OpGuard guard(op_depth_);
        r = constrain_rec(f.edge(), c.edge());
    }
    Bdd out = from_edge(r);
    auto_gc_if_needed();
    return out;
}

Bdd Manager::restrict_to(const Bdd& f, const Bdd& c) {
    assert(f.manager() == this && c.manager() == this);
    Edge r;
    {
        OpGuard guard(op_depth_);
        r = restrict_rec(f.edge(), c.edge());
    }
    Bdd out = from_edge(r);
    auto_gc_if_needed();
    return out;
}

// ---------------------------------------------------------------------------
// Node redirection: F with the sub-function rooted at node v replaced by a
// constant. This realizes the dominator quotients F_{v->0} / F_{v->1} used
// by the 0-/1-/x-dominator decompositions.
// ---------------------------------------------------------------------------

Edge Manager::replace_rec(Edge f, NodeIndex v, Edge replacement, std::uint32_t gen) {
    if (edge_is_constant(f)) return f;
    const NodeIndex idx = edge_index(f);
    if (idx == v) return edge_complemented(f) ? edge_not(replacement) : replacement;
    // One memo slot per node polarity, valid where its stamp is `gen`.
    const std::size_t slot = 2 * static_cast<std::size_t>(idx) + (edge_complemented(f) ? 1 : 0);
    if (replace_stamp_[slot] == gen) return replace_memo_[slot];
    // Copy fields before recursing: make_node may reallocate nodes_.
    const Edge n_hi = nodes_[idx].hi;
    const Edge n_lo = nodes_[idx].lo;
    const std::uint32_t n_level = nodes_[idx].level;
    const Edge t = replace_rec(edge_complemented(f) ? edge_not(n_hi) : n_hi, v,
                               replacement, gen);
    const Edge e = replace_rec(edge_complemented(f) ? edge_not(n_lo) : n_lo, v,
                               replacement, gen);
    const Edge r = make_node(n_level, t, e);
    replace_stamp_[slot] = gen;
    replace_memo_[slot] = r;
    return r;
}

Bdd Manager::replace_node_with_const(const Bdd& f, NodeIndex v, bool value) {
    assert(f.manager() == this);
    assert(v != kTerminalIndex);
    Edge r;
    {
        OpGuard guard(op_depth_);
        // The memo is Manager-owned, generation-stamped scratch: a new call
        // bumps the generation instead of clearing, so an entry left by a
        // call that threw (max_live_nodes guard, injected fault) is simply
        // stale, and reset() or another manager can never observe it. Only
        // nodes that exist now are memoized (make_node never recycles a
        // slot reachable from f), so sizing to nodes_ here suffices.
        const std::size_t slots = 2 * nodes_.size();
        if (replace_stamp_.size() < slots) {
            replace_stamp_.resize(slots, 0);
            replace_memo_.resize(slots, kEdgeInvalid);
        }
        if (++replace_gen_ == 0) {
            std::fill(replace_stamp_.begin(), replace_stamp_.end(), 0);
            replace_gen_ = 1;
        }
        r = replace_rec(f.edge(), v, value ? kEdgeOne : kEdgeZero, replace_gen_);
    }
    Bdd out = from_edge(r);
    auto_gc_if_needed();
    return out;
}

}  // namespace bdsmaj::bdd
