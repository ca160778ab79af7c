#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "bdd/bdd.hpp"

namespace bdsmaj::bdd {

namespace {

/// Marks the interaction matrix as trusted for the duration of a reorder
/// operation (swaps only remove variable-pair paths, so the matrix
/// recomputed at entry stays a sound over-approximation throughout).
class InteractionTrustGuard {
public:
    explicit InteractionTrustGuard(bool& flag) : flag_(flag) { flag_ = true; }
    ~InteractionTrustGuard() { flag_ = false; }
    InteractionTrustGuard(const InteractionTrustGuard&) = delete;
    InteractionTrustGuard& operator=(const InteractionTrustGuard&) = delete;

private:
    bool& flag_;
};

}  // namespace

// ---------------------------------------------------------------------------
// In-place adjacent-level swap.
//
// Variables x (upper level u) and y (lower level u+1) exchange positions.
// All node indices stay valid: nodes are rewritten in place, so every
// outstanding handle and every parent edge continues to denote the same
// function.
//
// Fast path — label-only exchange. When either level is empty, or the
// interaction matrix proves no x-labeled node can have a y-labeled
// descendant (so in particular no direct u -> u+1 edge exists), no node
// needs restructuring: every node keeps its variable, children, and hash
// key; only its level changes. The two tables and live counts are swapped
// wholesale — no evacuation, no rehashing, no refcount churn, and the
// computed table stays exactly valid (no slot was freed or created).
//
// Slow path — the classical restructuring swap used by reordering BDD
// packages:
//   1. evacuate both levels from their unique tables (and size the empty
//      bucket arrays once for the incoming population, instead of doubling
//      through overloaded chains insert by insert);
//   2. x-nodes that do not reference level u+1 simply move down;
//   3. x-nodes that do are rewritten in place into y-nodes over fresh
//      (or shared) x-nodes built at level u+1:
//         x ? (y?f11:f10) : (y?f01:f00)   ==   y ? (x?f11:f01) : (x?f10:f00)
//   4. old y-nodes that are still referenced move up, dead ones are freed.
// ---------------------------------------------------------------------------

std::size_t Manager::swap_levels_internal(std::uint32_t upper) {
    const std::uint32_t lower = upper + 1;
    assert(lower < tables_.size());

    const int vx = static_cast<int>(level_to_var_[upper]);
    const int vy = static_cast<int>(level_to_var_[lower]);
    bool label_only = tables_[upper].entries == 0 || tables_[lower].entries == 0;
    if (!label_only && interact_trusted_ && !vars_interact_raw(vx, vy)) {
        label_only = true;
#ifndef NDEBUG
        // The matrix is conservative: non-interacting really does mean no
        // node at `upper` reaches into `lower`.
        for (const std::uint32_t head : tables_[upper].buckets) {
            for (std::uint32_t idx = head; idx != kNil; idx = aux_[idx].next) {
                assert(edge_level(nodes_[idx].hi) != lower &&
                       edge_level(nodes_[idx].lo) != lower);
            }
        }
#endif
    }
    if (label_only) {
        for (const std::uint32_t head : tables_[upper].buckets) {
            for (std::uint32_t idx = head; idx != kNil; idx = aux_[idx].next) {
                nodes_[idx].level = lower;
            }
        }
        for (const std::uint32_t head : tables_[lower].buckets) {
            for (std::uint32_t idx = head; idx != kNil; idx = aux_[idx].next) {
                nodes_[idx].level = upper;
            }
        }
        std::swap(tables_[upper], tables_[lower]);
        std::swap(level_live_[upper], level_live_[lower]);
        std::swap(level_to_var_[upper], level_to_var_[lower]);
        var_to_level_[level_to_var_[upper]] = upper;
        var_to_level_[level_to_var_[lower]] = lower;
        ++reorder_stats_.fast_swaps;
        return live_nodes_;
    }

    auto evacuate = [&](std::uint32_t level, std::vector<NodeIndex>& out) {
        out.clear();
        LevelTable& table = tables_[level];
        out.reserve(table.entries);
        for (auto& head : table.buckets) {
            for (std::uint32_t idx = head; idx != kNil;) {
                const std::uint32_t next = aux_[idx].next;
                out.push_back(idx);
                idx = next;
            }
            head = kNil;
        }
        table.entries = 0;
    };

    std::vector<NodeIndex>& xs = swap_xs_;
    std::vector<NodeIndex>& ys = swap_ys_;
    evacuate(upper, xs);
    evacuate(lower, ys);
    // Both tables are about to absorb roughly the other level's population
    // (plus restructuring shares); one sized assign beats doubling through
    // overloaded chains during re-insertion.
    size_empty_table(tables_[upper], xs.size() + ys.size());
    size_empty_table(tables_[lower], xs.size() + ys.size());

    auto free_dead_node = [&](NodeIndex idx) {
        // Node is out of every table and has ref == 0.
        dec_ref(nodes_[idx].hi);
        dec_ref(nodes_[idx].lo);
        nodes_[idx].level = kTerminalLevel;
        nodes_[idx].hi = kEdgeInvalid;
        nodes_[idx].lo = kEdgeInvalid;
        aux_[idx].next = free_list_;
        free_list_ = idx;
        --dead_nodes_;
        cache_tainted_ = true;  // slot may recycle into a different function
    };

    // Pass 1: move x-nodes independent of y down to the lower level, so that
    // pass 2's make_node lookups can share them instead of duplicating.
    std::vector<NodeIndex>& to_restructure = swap_restructure_;
    to_restructure.clear();
    for (const NodeIndex idx : xs) {
        if (aux_[idx].ref == 0) {
            free_dead_node(idx);
            continue;
        }
        const Edge t = nodes_[idx].hi;
        const Edge e = nodes_[idx].lo;
        if (edge_level(t) != lower && edge_level(e) != lower) {
            --level_live_[upper];
            ++level_live_[lower];
            nodes_[idx].level = lower;
            table_insert(lower, idx);
        } else {
            to_restructure.push_back(idx);
        }
    }

    // Pass 2: rewrite y-dependent x-nodes in place.
    for (const NodeIndex idx : to_restructure) {
        const Edge t = nodes_[idx].hi;  // regular by invariant
        const Edge e = nodes_[idx].lo;
        Edge f11, f10, f01, f00;
        cofactors_at(t, lower, &f11, &f10);
        cofactors_at(e, lower, &f01, &f00);
        // make_node may reallocate nodes_; do not hold references across it.
        const Edge new_hi = make_node(lower, f11, f01);
        const Edge new_lo = make_node(lower, f10, f00);
        assert(!edge_complemented(new_hi));
        assert(new_hi != new_lo);
        inc_ref(new_hi);
        inc_ref(new_lo);
        dec_ref(t);
        dec_ref(e);
        nodes_[idx].hi = new_hi;
        nodes_[idx].lo = new_lo;
        table_insert(upper, idx);  // stays at `upper`, now labeled y
    }

    // Pass 3: relocate surviving y-nodes to the upper level, free dead ones.
    for (const NodeIndex idx : ys) {
        if (aux_[idx].ref == 0) {
            free_dead_node(idx);
        } else {
            --level_live_[lower];
            ++level_live_[upper];
            nodes_[idx].level = upper;
            table_insert(upper, idx);
        }
    }

    // Pass 4: exchange the variable labels of the two levels.
    std::swap(level_to_var_[upper], level_to_var_[lower]);
    var_to_level_[level_to_var_[upper]] = upper;
    var_to_level_[level_to_var_[lower]] = lower;
    ++reorder_stats_.swaps;
    return live_nodes_;
}

void Manager::swap_adjacent_levels(int level) {
    if (level < 0 || level + 1 >= static_cast<int>(tables_.size())) {
        throw std::out_of_range("swap_adjacent_levels: bad level");
    }
    assert(op_depth_ == 0);
    if (!interact_valid_) recompute_interactions();
    {
        InteractionTrustGuard trust(interact_trusted_);
        swap_levels_internal(static_cast<std::uint32_t>(level));
    }
    // Cache entries are edge-keyed results of canonical functions, which a
    // swap preserves; only freed slots or order-dependent (constrain /
    // restrict) entries force the wipe.
    cache_clear_after_reorder();
    // A manual swap can split a symmetry group's contiguous level run.
    sym_valid_ = false;
}

// ---------------------------------------------------------------------------
// Variable symmetry detection.
//
// Variables x and y are symmetric when f(x=1,y=0) == f(x=0,y=1) for every
// root. For x at level u and y directly below at u+1, the structural check
// below is exact on a garbage-free store (every tabled node live, so every
// node is reachable from an external handle):
//
//   (1) at every u-node, the exchanged cofactors agree:
//       cofactor(then-edge, y=0) == cofactor(else-edge, y=1);
//   (2) every u+1-node is referenced only from u-nodes — an external
//       handle on a y-node, or a parent above level u, denotes a function
//       that depends on y along some path that never tests x, which breaks
//       the exchange for that root.
//
// Both comparisons are on canonical (complement-folded) edges, so edge
// equality is function equality. Candidate pairs are seeded from the
// interaction matrix: a non-interacting pair shares no root, so some root
// depends on exactly one of the two — asymmetric (or both variables are
// unused, where grouping buys nothing).
//
// Symmetry is transitive (the permutations fixing every root form a group:
// transpositions (xy) and (yz) generate (xz)), so unioning adjacent
// confirmed pairs yields groups any member pair of which is symmetric.
// Groups are purely a placement heuristic — block moves decompose into
// ordinary adjacent swaps, so stale or missed groups can only cost sift
// quality, never correctness.
// ---------------------------------------------------------------------------

std::uint32_t Manager::sym_find(std::uint32_t v) const {
    while (sym_parent_[v] != v) v = sym_parent_[v];
    return v;
}

void Manager::sym_union(std::uint32_t a, std::uint32_t b) {
    const std::uint32_t ra = sym_find(a);
    const std::uint32_t rb = sym_find(b);
    if (ra == rb) return;
    // Rooting at the smaller variable keeps sym_parent_[v] <= v everywhere,
    // which check_integrity() audits.
    sym_parent_[std::max(ra, rb)] = std::min(ra, rb);
}

bool Manager::adjacent_symmetric(std::uint32_t upper) {
    assert(dead_nodes_ == 0 && "symmetry check needs a garbage-free store");
    const std::uint32_t lower = upper + 1;
    const LevelTable& ut = tables_[upper];
    const LevelTable& lt = tables_[lower];
    // One level populated, the other not: some root depends on exactly one
    // of the two variables. (Interaction seeding already filters this.)
    if (ut.entries == 0 || lt.entries == 0) return false;

    // Condition (2): count level-`upper` parent edges per lower node and
    // compare with its refcount; any surplus is an external handle or a
    // parent above `upper`.
    NodeMap parents = make_node_map();
    for (const std::uint32_t head : ut.buckets) {
        for (std::uint32_t idx = head; idx != kNil; idx = aux_[idx].next) {
            for (const Edge child : {nodes_[idx].hi, nodes_[idx].lo}) {
                if (edge_level(child) != lower) continue;
                const NodeIndex c = edge_index(child);
                parents.set(c, (parents.contains(c) ? parents.at(c) : 0) + 1);
            }
        }
    }
    for (const std::uint32_t head : lt.buckets) {
        for (std::uint32_t idx = head; idx != kNil; idx = aux_[idx].next) {
            const std::uint32_t cnt = parents.contains(idx) ? parents.at(idx) : 0;
            if (aux_[idx].ref != cnt) return false;
        }
    }

    // Condition (1): f(x=1,y=0) == f(x=0,y=1) at every upper node.
    for (const std::uint32_t head : ut.buckets) {
        for (std::uint32_t idx = head; idx != kNil; idx = aux_[idx].next) {
            Edge f11, f10, f01, f00;
            cofactors_at(nodes_[idx].hi, lower, &f11, &f10);
            cofactors_at(nodes_[idx].lo, lower, &f01, &f00);
            if (f10 != f01) return false;
        }
    }
    return true;
}

void Manager::detect_symmetries() {
    const std::size_t n = var_to_level_.size();
    sym_parent_.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
        sym_parent_[v] = static_cast<std::uint32_t>(v);
    }
    for (std::uint32_t u = 0; u + 1 < tables_.size(); ++u) {
        const int vx = static_cast<int>(level_to_var_[u]);
        const int vy = static_cast<int>(level_to_var_[u + 1]);
        if (!vars_interact_raw(vx, vy)) continue;
        if (adjacent_symmetric(u)) {
            sym_union(static_cast<std::uint32_t>(vx),
                      static_cast<std::uint32_t>(vy));
            ++reorder_stats_.sym_pairs;
        }
    }
    sym_valid_ = true;
    std::vector<std::uint8_t> counted(n, 0);
    for (std::size_t v = 0; v < n; ++v) {
        const std::uint32_t root = sym_find(static_cast<std::uint32_t>(v));
        if (root != v && counted[root] == 0) {
            counted[root] = 1;
            ++reorder_stats_.sym_groups;
        }
    }
}

std::vector<std::vector<int>> Manager::symmetry_groups() const {
    std::vector<std::vector<int>> out;
    if (!sym_valid_) return out;
    const std::size_t n = sym_parent_.size();
    std::vector<int> group_of(n, -1);
    for (std::size_t v = 0; v < n; ++v) {
        const auto root = static_cast<std::size_t>(
            sym_find(static_cast<std::uint32_t>(v)));
        if (root == v) continue;
        if (group_of[root] < 0) {
            group_of[root] = static_cast<int>(out.size());
            out.emplace_back();
            out.back().push_back(static_cast<int>(root));
        }
        out[static_cast<std::size_t>(group_of[root])].push_back(
            static_cast<int>(v));
    }
    std::sort(out.begin(), out.end());  // by smallest member
    return out;
}

std::vector<std::vector<int>> Manager::compute_symmetry_groups() {
    assert(op_depth_ == 0);
    gc();  // detection needs the garbage-free store
    if (!interact_valid_) recompute_interactions();
    detect_symmetries();
    return symmetry_groups();
}

// ---------------------------------------------------------------------------
// Rudell sifting: move each variable through the whole order, keep the best
// position. Variables are processed in decreasing order of their level's
// node count, the standard heuristic. Two refinements over the textbook
// loop, both provably order-preserving (the final position of every
// variable is identical to the exhaustive version; tests enforce it):
//
//   * interaction fast path — swaps over runs of non-interacting levels are
//     label-only exchanges inside swap_levels_internal, costing no
//     restructuring and never changing the live size;
//   * lower-bound pruning — each variable's exploration starts from a
//     garbage-free store (sweep_dead; sweeps never touch live structure),
//     after which every node that dies during the exploration is a
//     descendant of an x-node: restructuring dec-refs hit x-children, and
//     cascaded frees only follow descendant edges of nodes that died the
//     same way. Levels whose variables do not interact with x therefore
//     keep their live counts for the whole exploration, so
//         live  -  (live_at_x_level - x_floor)  -  sum of interacting
//                                                  levels' live counts
//     bounds every reachable future size from below (for the downward run
//     only the not-yet-passed levels below can still shrink, which
//     tightens the sum). The moment the bound reaches the best size
//     already found, no further position in the direction can strictly
//     improve, and it is abandoned. The x_floor of 1 is sound because a
//     restructuring swap always leaves at least one live x-labeled node
//     when one existed before (t == e is impossible for a canonical node),
//     and no cascade can kill an x-node (a variable never appears twice on
//     a path).
// ---------------------------------------------------------------------------

// Sifting moves "units": a detected symmetry group occupying a contiguous
// run of k levels, or (the default) a single variable with k == 1. A unit
// never stops strictly inside another unit's span — it steps past whole
// neighbor units — so every group stays contiguous throughout a pass.

int Manager::unit_span_down(int level) const {
    if (!sym_valid_) return 1;
    const std::uint32_t root =
        sym_find(level_to_var_[static_cast<std::size_t>(level)]);
    int span = 1;
    while (level + span < static_cast<int>(level_to_var_.size()) &&
           sym_find(level_to_var_[static_cast<std::size_t>(level + span)]) ==
               root) {
        ++span;
    }
    return span;
}

int Manager::unit_span_up(int level) const {
    if (!sym_valid_) return 1;
    const std::uint32_t root =
        sym_find(level_to_var_[static_cast<std::size_t>(level)]);
    int span = 1;
    while (level - span >= 0 &&
           sym_find(level_to_var_[static_cast<std::size_t>(level - span)]) ==
               root) {
        ++span;
    }
    return span;
}

void Manager::check_sift_budget() {
    if (params_.sift_max_swaps == 0) return;
    const std::uint64_t spent =
        reorder_stats_.swaps + reorder_stats_.fast_swaps - sift_swap_mark_;
    if (spent <= params_.sift_max_swaps) return;
    // Between unit swaps the store is structurally consistent and no
    // temporary handles are held, but the sift is abandoned mid-schedule:
    // poison so the half-reordered manager is destroyed, not reset.
    poisoned_ = true;
    throw ResourceExhausted("bdd::Manager: sift_max_swaps ceiling (" +
                            std::to_string(params_.sift_max_swaps) + ") reached");
}

int Manager::swap_unit_down(int top, int k) {
    check_sift_budget();
    const int m = unit_span_down(top + k);
    // The whole m-level neighbor unit rises through the block: its j-th
    // member starts at top + k + j and bubbles up to top + j (k adjacent
    // swaps each, label-only wherever the interaction matrix allows).
    for (int j = 0; j < m; ++j) {
        for (int l = top + k + j - 1; l >= top + j; --l) {
            swap_levels_internal(static_cast<std::uint32_t>(l));
        }
    }
    if (k > 1 || m > 1) ++reorder_stats_.sym_block_swaps;
    return m;
}

int Manager::swap_unit_up(int top, int k) {
    check_sift_budget();
    const int m = unit_span_up(top - 1);
    // Mirror image: the neighbor's j-th member counted from its bottom
    // starts at top - 1 - j and descends to top + k - 1 - j.
    for (int j = 0; j < m; ++j) {
        for (int l = top - 1 - j; l <= top + k - 2 - j; ++l) {
            swap_levels_internal(static_cast<std::uint32_t>(l));
        }
    }
    if (k > 1 || m > 1) ++reorder_stats_.sym_block_swaps;
    return m;
}

void Manager::sift_unit_to(int cur_top, int k, int target_top) {
    // Other units keep their relative order while this one travels, so the
    // boundary positions on the way back are exactly those seen on the way
    // out and the steps land on target_top precisely.
    while (cur_top < target_top) cur_top += swap_unit_down(cur_top, k);
    while (cur_top > target_top) cur_top -= swap_unit_up(cur_top, k);
    assert(cur_top == target_top && "unit boundaries must realign");
}

void Manager::sift_pass() {
    const int num_levels = static_cast<int>(tables_.size());
    // Recompute per pass: earlier passes only shrink the pair set, so a
    // fresh matrix is tighter (more fast swaps), never less sound. With
    // symmetry on, sweep first so detection sees the garbage-free store
    // (and the matrix is tight per-root, which makes the seeding exact).
    if (params_.sift_symmetry) sweep_dead();
    recompute_interactions();
    if (params_.sift_symmetry) detect_symmetries();

    // Units: each detected symmetry group moves as one block; every other
    // variable is a singleton. With sift_symmetry off this is exactly the
    // classical per-variable schedule — units are built in variable order
    // and ranked with the same comparator, so even the std::sort
    // permutation is unchanged.
    std::vector<std::vector<int>> units;
    units.reserve(var_to_level_.size());
    if (sym_valid_) {
        std::vector<int> unit_of(var_to_level_.size(), -1);
        for (std::size_t v = 0; v < var_to_level_.size(); ++v) {
            const auto root = static_cast<std::size_t>(
                sym_find(static_cast<std::uint32_t>(v)));
            if (unit_of[root] < 0) {
                unit_of[root] = static_cast<int>(units.size());
                units.emplace_back();
            }
            units[static_cast<std::size_t>(unit_of[root])].push_back(
                static_cast<int>(v));
        }
    } else {
        for (std::size_t v = 0; v < var_to_level_.size(); ++v) {
            units.push_back({static_cast<int>(v)});
        }
    }
    const auto unit_live = [&](const std::vector<int>& unit) {
        std::size_t total = 0;
        for (const int v : unit) {
            total += level_live_[var_to_level_[static_cast<std::size_t>(v)]];
        }
        return total;
    };
    std::vector<int> order(units.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return unit_live(units[static_cast<std::size_t>(a)]) >
               unit_live(units[static_cast<std::size_t>(b)]);
    });

    std::vector<int> interacting;  // vars whose levels can change under the unit
    std::vector<std::uint8_t> in_unit(var_to_level_.size(), 0);
    for (const int ui : order) {
        std::vector<int>& members = units[static_cast<std::size_t>(ui)];
        // Garbage-free start: the cascade-containment argument behind the
        // lower bound needs it, and dragging dead nodes through swaps is
        // wasted restructuring anyway. No-op when nothing is dead.
        sweep_dead();
        std::sort(members.begin(), members.end(), [&](int a, int b) {
            return var_to_level_[static_cast<std::size_t>(a)] <
                   var_to_level_[static_cast<std::size_t>(b)];
        });
        const int k = static_cast<int>(members.size());
        int cur_top = level_of_var(members.front());
        assert(level_of_var(members.back()) == cur_top + k - 1 &&
               "symmetry group must be level-contiguous");
        std::size_t best_size = live_nodes_;
        int best_top = cur_top;
        // Shared garbage-free-start accounting for the whole block: each
        // member with live nodes keeps at least one at every position
        // (restructuring swaps never kill a level's last live node, and no
        // cascade can reach a unit member — a variable never appears twice
        // on a path).
        std::size_t unit_floor = 0;
        for (const int v : members) {
            if (level_live_[var_to_level_[static_cast<std::size_t>(v)]] > 0) {
                ++unit_floor;
            }
        }
        interacting.clear();
        if (params_.sift_lower_bound) {
            for (const int v : members) in_unit[static_cast<std::size_t>(v)] = 1;
            for (int v = 0; v < static_cast<int>(var_to_level_.size()); ++v) {
                if (in_unit[static_cast<std::size_t>(v)] != 0) continue;
                for (const int m : members) {
                    if (vars_interact_raw(m, v)) {
                        interacting.push_back(v);
                        break;
                    }
                }
            }
            for (const int v : members) in_unit[static_cast<std::size_t>(v)] = 0;
        }
        // Levels that may still lose nodes: the unit's own (down to
        // unit_floor) and the interacting ones — below only for a downward
        // run (levels already passed sit above the unit and cascades travel
        // strictly down), all of them for an upward run.
        const auto lower_bound_size = [&](bool below_only) {
            std::size_t reducible = 0;
            for (int l = cur_top; l < cur_top + k; ++l) {
                reducible += level_live_[static_cast<std::size_t>(l)];
            }
            reducible -= unit_floor;
            for (const int v : interacting) {
                const std::uint32_t l = var_to_level_[static_cast<std::size_t>(v)];
                if (!below_only || static_cast<int>(l) > cur_top + k - 1) {
                    reducible += level_live_[l];
                }
            }
            return live_nodes_ - reducible;
        };

        // Visit the nearer end of the order first: fewer swaps in the common
        // case where the unit does not want to travel far.
        const bool down_first = (num_levels - k - cur_top) <= cur_top;
        for (const bool downward : {down_first, !down_first}) {
            if (downward) {
                while (cur_top + k < num_levels) {
                    if (params_.sift_lower_bound &&
                        lower_bound_size(/*below_only=*/true) >= best_size) {
                        ++reorder_stats_.lb_aborts;
                        reorder_stats_.lb_saved_swaps +=
                            static_cast<std::uint64_t>(num_levels - k - cur_top) *
                            static_cast<std::uint64_t>(k);
                        break;
                    }
                    cur_top += swap_unit_down(cur_top, k);
                    if (live_nodes_ < best_size) {
                        best_size = live_nodes_;
                        best_top = cur_top;
                    } else if (static_cast<double>(live_nodes_) >
                               params_.sift_max_growth * static_cast<double>(best_size)) {
                        ++reorder_stats_.growth_aborts;
                        break;
                    }
                }
            } else {
                while (cur_top > 0) {
                    if (params_.sift_lower_bound &&
                        lower_bound_size(/*below_only=*/false) >= best_size) {
                        ++reorder_stats_.lb_aborts;
                        reorder_stats_.lb_saved_swaps +=
                            static_cast<std::uint64_t>(cur_top) *
                            static_cast<std::uint64_t>(k);
                        break;
                    }
                    cur_top -= swap_unit_up(cur_top, k);
                    if (live_nodes_ < best_size) {
                        best_size = live_nodes_;
                        best_top = cur_top;
                    } else if (static_cast<double>(live_nodes_) >
                               params_.sift_max_growth * static_cast<double>(best_size)) {
                        ++reorder_stats_.growth_aborts;
                        break;
                    }
                }
            }
        }
        sift_unit_to(cur_top, k, best_top);
        if (dead_nodes_ > params_.gc_dead_threshold) sweep_dead();
    }
    ++reorder_stats_.passes;
}

void Manager::sift() {
    assert(op_depth_ == 0);
    if (tables_.size() < 2) {
        gc();
        return;
    }
    // Start from an exact live census. No operation probes the computed
    // table until sifting finishes, so intermediate collections only sweep;
    // a single conditional cache clear at the end handles freed slots and
    // order-dependent entries in one pass.
    sift_swap_mark_ = reorder_stats_.swaps + reorder_stats_.fast_swaps;
    sweep_dead();
    InteractionTrustGuard trust(interact_trusted_);
    sift_pass();
    if (params_.sift_converge) {
        // Every pass is monotone non-increasing (each variable lands on its
        // best position); stop when a whole pass gains less than the
        // convergence ratio, or after the pass cap.
        constexpr double kConvergeRatio = 0.01;
        constexpr int kMaxPasses = 10;
        for (int pass = 1; pass < kMaxPasses; ++pass) {
            const std::size_t before = live_nodes_;
            sift_pass();
            assert(live_nodes_ <= before);
            if (static_cast<double>(before - live_nodes_) <
                kConvergeRatio * static_cast<double>(before)) {
                break;
            }
        }
    }
    sweep_dead();
    cache_clear_after_reorder();
}

}  // namespace bdsmaj::bdd
