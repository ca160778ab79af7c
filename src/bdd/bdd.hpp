#pragma once
// Reduced Ordered Binary Decision Diagram package with complement edges.
//
// The package follows the classical Brace-Rudell-Bryant construction
// [Efficient implementation of a BDD package, DAC'90], which is the design
// the paper assumes of its underlying BDD substrate:
//   * one node store with a unique table per variable level, so that each
//     (level, then, else) triple exists at most once -> canonicity, and
//     functional equivalence is pointer equality;
//   * complement attributes on edges, restricted to else-edges ("only
//     0-edges can be complemented", paper SII-B), halving node count;
//   * a computed table (operation cache) for ITE and the generalized
//     cofactors;
//   * reference counting with deferred garbage collection;
//   * dynamic variable reordering by Rudell sifting, built on an in-place
//     adjacent-level swap that keeps all outstanding handles valid.
//
// Public use goes through the RAII `Bdd` handle. The raw `Edge` layer
// (node indices with a complement bit) is deliberately exposed as an
// expert API because the decomposition engine must walk BDD structure
// (dominator search is defined on nodes and incoming edges).

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "tt/truth_table.hpp"

namespace bdsmaj::bdd {

/// A directed edge: node index shifted left once, complement bit in bit 0.
using Edge = std::uint32_t;
using NodeIndex = std::uint32_t;

constexpr NodeIndex kTerminalIndex = 0;
constexpr Edge kEdgeOne = 0;   // terminal, regular
constexpr Edge kEdgeZero = 1;  // terminal, complemented
constexpr Edge kEdgeInvalid = 0xffffffffu;
/// Level of the terminal node; larger than any variable level.
constexpr std::uint32_t kTerminalLevel = 0x7fffffffu;

[[nodiscard]] constexpr NodeIndex edge_index(Edge e) noexcept { return e >> 1; }
[[nodiscard]] constexpr bool edge_complemented(Edge e) noexcept { return (e & 1u) != 0; }
[[nodiscard]] constexpr Edge make_edge(NodeIndex i, bool complement) noexcept {
    return (i << 1) | static_cast<Edge>(complement);
}
[[nodiscard]] constexpr Edge edge_not(Edge e) noexcept { return e ^ 1u; }
[[nodiscard]] constexpr Edge edge_regular(Edge e) noexcept { return e & ~Edge{1}; }
[[nodiscard]] constexpr bool edge_is_constant(Edge e) noexcept {
    return edge_index(e) == kTerminalIndex;
}

class Manager;

/// RAII reference to a BDD function. Copying/destroying maintains the node
/// reference count in the owning Manager. Equality is structural equality
/// of edges, which by canonicity is functional equality.
class Bdd {
public:
    Bdd() = default;
    Bdd(const Bdd& o);
    Bdd(Bdd&& o) noexcept;
    Bdd& operator=(const Bdd& o);
    Bdd& operator=(Bdd&& o) noexcept;
    ~Bdd();

    [[nodiscard]] bool valid() const noexcept { return mgr_ != nullptr; }
    [[nodiscard]] Manager* manager() const noexcept { return mgr_; }
    [[nodiscard]] Edge edge() const noexcept { return edge_; }

    [[nodiscard]] bool is_one() const noexcept { return valid() && edge_ == kEdgeOne; }
    [[nodiscard]] bool is_zero() const noexcept { return valid() && edge_ == kEdgeZero; }
    [[nodiscard]] bool is_constant() const noexcept {
        return valid() && edge_is_constant(edge_);
    }

    /// Complemented copy; O(1) thanks to complement edges.
    [[nodiscard]] Bdd operator!() const;
    [[nodiscard]] Bdd operator&(const Bdd& o) const;
    [[nodiscard]] Bdd operator|(const Bdd& o) const;
    [[nodiscard]] Bdd operator^(const Bdd& o) const;

    friend bool operator==(const Bdd& a, const Bdd& b) noexcept {
        return a.mgr_ == b.mgr_ && a.edge_ == b.edge_;
    }

private:
    friend class Manager;
    Bdd(Manager* mgr, Edge edge);  // takes a fresh reference

    Manager* mgr_ = nullptr;
    Edge edge_ = kEdgeInvalid;
};

/// Recoverable resource-guard violation: a manager hit its configured
/// node-allocation or sift-swap ceiling (ManagerParams::max_live_nodes /
/// sift_max_swaps). The throwing manager is poisoned — internal state may
/// be mid-operation — and must be destroyed, not reused; ManagerPool does
/// this automatically on lease release. Decomposition callers catch it per
/// supernode and retry the cone on a cheaper parameter ladder, so a
/// blow-up costs one cone, not one job.
class ResourceExhausted : public std::runtime_error {
public:
    explicit ResourceExhausted(const std::string& what) : std::runtime_error(what) {}
};

/// Tuning knobs for the manager.
struct ManagerParams {
    std::size_t cache_size_log2 = 10;   ///< initial computed-table entries = 2^k
    std::size_t cache_max_size_log2 = 23;  ///< growth ceiling (2^k entries)
    std::size_t gc_dead_threshold = 1u << 14;  ///< auto-GC when this many dead
    double sift_max_growth = 1.25;      ///< abort a sift direction beyond this
    int sift_max_vars = 1000;           ///< max variables sifted per pass
    /// Abort a sift direction as soon as the frozen-part lower bound proves
    /// no strictly better position can exist in it. Produces the same final
    /// order as exhaustive exploration (tests enforce it); off only for A/B.
    bool sift_lower_bound = true;
    /// Repeat sift passes until a pass improves the live size by less than
    /// sift_converge_ratio (or sift_max_passes is hit). Off = one pass, the
    /// classical Rudell schedule the paper presets are fingerprinted on.
    bool sift_converge = false;
    double sift_converge_ratio = 0.01;
    int sift_max_passes = 10;
    /// Detect pairwise-symmetric variables at each sift pass (candidate
    /// pairs seeded from the interaction matrix, confirmed by the exact
    /// adjacent-level structural check) and move each symmetry group as one
    /// block. Off by default: the `paper` preset is fingerprinted on the
    /// classical per-variable schedule.
    bool sift_symmetry = false;
    /// Ceiling on allocated internal nodes (live + dead-but-tabled). A
    /// make_node that would allocate past it throws ResourceExhausted and
    /// poisons the manager. 0 = unlimited (the default — the guard path
    /// costs one predictable branch per fresh allocation).
    std::size_t max_live_nodes = 0;
    /// Ceiling on adjacent-level swaps (structural + label-only) a single
    /// sift() call may spend; exceeding it throws ResourceExhausted
    /// mid-reorder and poisons the manager. 0 = unlimited.
    std::uint64_t sift_max_swaps = 0;
};

/// Reordering telemetry (monotonic over the manager's lifetime).
struct ReorderStats {
    std::uint64_t swaps = 0;        ///< structural adjacent-level swaps
    std::uint64_t fast_swaps = 0;   ///< label-only swaps (non-interacting / empty)
    std::uint64_t lb_aborts = 0;    ///< sift directions cut by the lower bound
    std::uint64_t lb_saved_swaps = 0;  ///< swaps those aborts provably avoided
    std::uint64_t growth_aborts = 0;   ///< directions cut by sift_max_growth
    std::uint64_t passes = 0;          ///< completed sift passes
    std::uint64_t cache_clears_avoided = 0;  ///< reorders that kept the cache
    std::uint64_t sym_pairs = 0;       ///< adjacent pairs confirmed symmetric
    std::uint64_t sym_groups = 0;      ///< symmetry groups (size >= 2) detected
    std::uint64_t sym_block_swaps = 0; ///< unit exchanges involving a block
};

/// Computed-table telemetry (monotonic over the manager's lifetime).
struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    /// Inserts that evicted a live (still-valid) entry of a different key.
    std::uint64_t collisions = 0;
    [[nodiscard]] double hit_rate() const noexcept {
        const std::uint64_t total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
};

class Manager {
public:
    explicit Manager(int num_vars = 0, ManagerParams params = {});
    Manager(const Manager&) = delete;
    Manager& operator=(const Manager&) = delete;
    ~Manager();

    /// Return the manager to the state a freshly constructed
    /// Manager(num_vars, params) would have — empty unique tables with
    /// their initial bucket counts, identity variable order, cleared
    /// computed table at its initial size, zeroed telemetry — while keeping
    /// the node-store / table-vector capacities, which is the point of
    /// pooling (bdd/manager_pool.hpp): a reset manager behaves observably
    /// identically to a fresh one, so pooled reuse cannot change any
    /// decomposition result. All outstanding Bdd handles must have been
    /// released; must not be called from inside an operation. O(num_vars +
    /// initial cache size), independent of how many nodes existed.
    void reset(int num_vars, ManagerParams params = {});

    // ---- Variables -------------------------------------------------------
    [[nodiscard]] int num_vars() const noexcept { return static_cast<int>(var_to_level_.size()); }
    /// Create a new variable at the bottom of the current order.
    int new_var();
    [[nodiscard]] int level_of_var(int var) const { return static_cast<int>(var_to_level_[static_cast<std::size_t>(var)]); }
    [[nodiscard]] int var_at_level(int level) const { return static_cast<int>(level_to_var_[static_cast<std::size_t>(level)]); }
    /// Current variable order, top to bottom.
    [[nodiscard]] std::vector<int> current_order() const;

    // ---- Constants and literals -----------------------------------------
    [[nodiscard]] Bdd one();
    [[nodiscard]] Bdd zero();
    [[nodiscard]] Bdd var_bdd(int var);
    [[nodiscard]] Bdd nvar_bdd(int var);
    [[nodiscard]] Bdd constant(bool value) { return value ? one() : zero(); }

    // ---- Core operations -------------------------------------------------
    [[nodiscard]] Bdd ite(const Bdd& f, const Bdd& g, const Bdd& h);
    [[nodiscard]] Bdd apply_and(const Bdd& f, const Bdd& g);
    [[nodiscard]] Bdd apply_or(const Bdd& f, const Bdd& g);
    [[nodiscard]] Bdd apply_xor(const Bdd& f, const Bdd& g);
    [[nodiscard]] Bdd apply_xnor(const Bdd& f, const Bdd& g);
    [[nodiscard]] Bdd maj(const Bdd& a, const Bdd& b, const Bdd& c);

    /// Shannon cofactor with respect to a single variable.
    [[nodiscard]] Bdd cofactor(const Bdd& f, int var, bool value);
    /// Existential / universal quantification of one variable.
    [[nodiscard]] Bdd exists(const Bdd& f, int var);
    [[nodiscard]] Bdd forall(const Bdd& f, int var);

    /// Coudert-Berthet-Madre `constrain` generalized cofactor F|c.
    [[nodiscard]] Bdd constrain(const Bdd& f, const Bdd& c);
    /// Coudert-Madre `restrict` generalized cofactor (support-reducing).
    [[nodiscard]] Bdd restrict_to(const Bdd& f, const Bdd& c);

    /// Function with the sub-BDD rooted at (regular) node `v` replaced by a
    /// constant; the redirection used by dominator-based decomposition.
    [[nodiscard]] Bdd replace_node_with_const(const Bdd& f, NodeIndex v, bool value);
    /// Function of the node itself (regular edge), as a handle.
    [[nodiscard]] Bdd node_function(NodeIndex v);

    // ---- Analysis ---------------------------------------------------------
    /// Number of internal nodes in the DAG of f (complement edges ignored).
    [[nodiscard]] std::size_t dag_size(const Bdd& f);
    /// DAG size of the union of several functions (shared nodes counted once).
    [[nodiscard]] std::size_t dag_size(std::span<const Bdd> fs);
    [[nodiscard]] std::vector<int> support_vars(const Bdd& f);
    /// Fraction of satisfying minterms over all num_vars() variables.
    [[nodiscard]] double sat_fraction(const Bdd& f);
    [[nodiscard]] bool eval(const Bdd& f, const std::vector<bool>& values_by_var);

    /// Visit each internal node of f's DAG once (by regular node index), in
    /// the same DFS order for every backend. The visitor must not create or
    /// free nodes, and traversals must not nest. Template form: no
    /// std::function indirection in inner loops.
    template <typename Fn>
    void for_each_node(Edge root, Fn&& fn) {
        const NodeIndex r = edge_index(root);
        if (r == kTerminalIndex) return;
        const std::uint32_t gen = begin_traversal();
        std::vector<NodeIndex>& stack = scratch_stack_;
        stack.clear();
        visit_stamp_[r] = gen;
        stack.push_back(r);
        while (!stack.empty()) {
            const NodeIndex idx = stack.back();
            stack.pop_back();
            fn(idx);
            const Node& n = nodes_[idx];
            const NodeIndex hi = edge_index(n.hi);
            if (hi != kTerminalIndex && visit_stamp_[hi] != gen) {
                visit_stamp_[hi] = gen;
                stack.push_back(hi);
            }
            const NodeIndex lo = edge_index(n.lo);
            if (lo != kTerminalIndex && visit_stamp_[lo] != gen) {
                visit_stamp_[lo] = gen;
                stack.push_back(lo);
            }
        }
    }
    /// Compatibility wrapper over for_each_node.
    void visit_nodes(const Bdd& f, const std::function<void(NodeIndex)>& fn);

    /// Expert API: a generation-stamped per-node uint32 side map, O(1) to
    /// create (no allocation, no clearing; backed by Manager-owned scratch
    /// arrays distinct from the traversal stamps). At most one map is live
    /// at a time; creating a new one invalidates the previous map. Entries
    /// for nodes created after the map was made must not be accessed.
    class NodeMap {
    public:
        void set(NodeIndex i, std::uint32_t v) {
            mgr_->map_stamp_[i] = gen_;
            mgr_->map_value_[i] = v;
        }
        [[nodiscard]] bool contains(NodeIndex i) const {
            return mgr_->map_stamp_[i] == gen_;
        }
        /// Undefined unless contains(i).
        [[nodiscard]] std::uint32_t at(NodeIndex i) const { return mgr_->map_value_[i]; }

    private:
        friend class Manager;
        NodeMap(Manager* mgr, std::uint32_t gen) : mgr_(mgr), gen_(gen) {}
        Manager* mgr_;
        std::uint32_t gen_;
    };
    [[nodiscard]] NodeMap make_node_map();

    // ---- Conversion (test oracle bridge) ----------------------------------
    [[nodiscard]] tt::TruthTable to_truth_table(const Bdd& f, int num_tt_vars);
    [[nodiscard]] Bdd from_truth_table(const tt::TruthTable& tt);

    // ---- Structure access (expert API) -------------------------------------
    [[nodiscard]] Bdd from_edge(Edge e);
    [[nodiscard]] std::uint32_t edge_level(Edge e) const;
    [[nodiscard]] int edge_top_var(Edge e) const;
    /// Then-child of the node under e, with e's complement bit applied.
    [[nodiscard]] Edge edge_then(Edge e) const;
    /// Else-child of the node under e, with e's complement bit applied.
    [[nodiscard]] Edge edge_else(Edge e) const;

    // ---- Maintenance -------------------------------------------------------
    /// Reclaim all dead nodes. Invalidates nothing visible: handles keep
    /// their nodes alive.
    void gc();
    /// Rudell sifting over all variables (interaction-aware, lower-bound
    /// pruned; one pass, or repeated passes with ManagerParams::sift_converge).
    /// Keeps every handle valid.
    void sift();
    /// Swap the variables at `level` and `level+1` (exposed for testing).
    void swap_adjacent_levels(int level);
    /// True when the two variables may appear together on a root-to-terminal
    /// path (conservative). Non-interacting adjacent levels swap by label
    /// exchange only. Recomputes the interaction matrix if it is stale.
    [[nodiscard]] bool vars_interact(int a, int b);
    /// Symmetry groups from the most recent detection (each group sorted by
    /// variable, groups ordered by their smallest member; singletons
    /// omitted). Empty when no detection is current — groups are
    /// invalidated by gc()/new_var()/manual swaps, exactly like the
    /// interaction matrix, and re-detected at every symmetry-enabled sift
    /// pass.
    [[nodiscard]] std::vector<std::vector<int>> symmetry_groups() const;
    /// Run symmetry detection now (collect garbage, refresh the interaction
    /// matrix, sweep all adjacent level pairs) and return the groups found.
    /// Detection is exact for adjacent level pairs on the garbage-free
    /// store; pairs separated by other levels are discovered across sift
    /// passes as blocks become adjacent. Exposed for the symmetry oracle
    /// tests; sift() performs the same detection internally.
    [[nodiscard]] std::vector<std::vector<int>> compute_symmetry_groups();
    [[nodiscard]] std::size_t live_node_count() const noexcept { return live_nodes_; }
    [[nodiscard]] std::size_t peak_node_count() const noexcept { return peak_nodes_; }
    /// True after a resource guard or injected fault threw out of an
    /// internal operation: handles stay destructible (dec_ref is
    /// index-safe), but tables may be mid-restructure, so the manager must
    /// not run further operations, be reset(), or be pooled — destroy it.
    /// ManagerPool::release honors this automatically.
    [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }
    /// Computed-table hit/miss/insert/collision counters.
    [[nodiscard]] const CacheStats& cache_stats() const noexcept { return cache_stats_; }
    /// Reordering swap/skip/abort counters.
    [[nodiscard]] const ReorderStats& reorder_stats() const noexcept {
        return reorder_stats_;
    }
    /// Structural audit of the node store: unique-table chain membership and
    /// entry counts, level_live_ census, ordering/canonicity invariants,
    /// free-list hygiene, and (when current) interaction-matrix consistency.
    /// Returns an empty string when everything holds, else a description of
    /// the first violation. Intended for debug builds and the reorder
    /// invariant tests; O(nodes).
    [[nodiscard]] std::string check_integrity() const;
    /// Current computed-table capacity in entries.
    [[nodiscard]] std::size_t cache_capacity() const noexcept { return cache_.size(); }
    /// DOT rendering of one or more roots, for documentation/debugging.
    [[nodiscard]] std::string to_dot(std::span<const Bdd> roots,
                                     std::span<const std::string> names = {});

private:
    friend class Bdd;

    /// Hot node section (12 B): the only fields every recursive core, every
    /// traversal, and every swap restructure reads. Packing them alone puts
    /// ~5 nodes per cache line instead of ~3.
    struct Node {
        std::uint32_t level = kTerminalLevel;
        Edge hi = kEdgeInvalid;  // then-edge; always regular
        Edge lo = kEdgeInvalid;  // else-edge; may be complemented
    };
    /// Cold node section: unique-table chain link and reference count, only
    /// touched by hash-cons lookups, refcounting, and GC. Indexed in
    /// lockstep with nodes_.
    struct NodeAux {
        std::uint32_t next = kNil;  // unique-table chain / free list
        std::uint32_t ref = 0;
    };

    struct LevelTable {
        std::vector<std::uint32_t> buckets;  // heads of chains, kNil = empty
        std::uint32_t entries = 0;
    };

    enum class CacheOp : std::uint8_t { kIte = 1, kConstrain, kRestrict, kReplace,
                                        kAnd, kXor };

    struct CacheEntry {
        Edge f = kEdgeInvalid, g = kEdgeInvalid, h = kEdgeInvalid;
        Edge result = kEdgeInvalid;
        CacheOp op{};
    };

    static constexpr std::uint32_t kNil = 0xffffffffu;

    // Reference counting.
    void inc_ref(Edge e);
    void dec_ref(Edge e);

    // Node construction (normalizes complement attribute; hash-consed).
    Edge make_node(std::uint32_t level, Edge hi, Edge lo);
    std::uint32_t alloc_slot();
    void table_insert(std::uint32_t level, NodeIndex idx);
    void table_remove(std::uint32_t level, NodeIndex idx);
    void maybe_grow_table(LevelTable& table);
    /// Size an (empty) table's bucket array for an expected population:
    /// one pow2 resize instead of doubling through overloaded chains during
    /// swap re-insertion. Only legal when the table has no entries.
    void size_empty_table(LevelTable& table, std::size_t expected);
    [[nodiscard]] std::size_t bucket_of(const LevelTable& table, Edge hi, Edge lo) const;

    // Variable interaction matrix: row v is the bit-set of variables that
    // may appear strictly below a v-labeled node (var-granularity transitive
    // reach over every tabled node, live or dead — a conservative
    // over-approximation of ancestor/descendant variable pairs). Two
    // adjacent levels whose variables do not interact swap by label
    // exchange, with no table evacuation and no node restructuring.
    void recompute_interactions();
    void interaction_add_node(std::uint32_t level, Edge hi, Edge lo);
    [[nodiscard]] bool interaction_bit(int a, int b) const {
        return (interact_[static_cast<std::size_t>(a) * interact_words_ +
                          (static_cast<std::size_t>(b) >> 6)] >>
                (static_cast<std::size_t>(b) & 63)) &
               1u;
    }
    [[nodiscard]] bool vars_interact_raw(int a, int b) const {
        // Rows are directional (reach-below); a symmetric query reads both.
        return interaction_bit(a, b) || interaction_bit(b, a);
    }

    // Computed table. The slot index is computed once per (op, operands)
    // triple and shared between the lookup and the insert; the table never
    // resizes while a recursive core is on the stack, so a slot stays valid
    // across the recursion between the two.
    [[nodiscard]] std::size_t cache_slot(CacheOp op, Edge f, Edge g, Edge h) const;
    [[nodiscard]] bool cache_probe(std::size_t slot, CacheOp op, Edge f, Edge g,
                                   Edge h, Edge* out) const;
    void cache_store(std::size_t slot, CacheOp op, Edge f, Edge g, Edge h, Edge result);
    [[nodiscard]] bool cache_lookup(CacheOp op, Edge f, Edge g, Edge h, Edge* out) const;
    void cache_insert(CacheOp op, Edge f, Edge g, Edge h, Edge result);
    void cache_clear();
    /// Grow the computed table with the live-node count (top level only).
    void maybe_grow_cache();
    /// Free dead nodes without touching the computed table. Callers must
    /// clear the cache before the next cache probe (freed slots may be
    /// recycled, so stale entries could falsely hit).
    void sweep_dead();

    // Traversal scratch.
    std::uint32_t begin_traversal();

    // Recursive cores (no GC may run while these are on the stack).
    Edge ite_rec(Edge f, Edge g, Edge h);
    Edge and_rec(Edge f, Edge g);
    Edge xor_rec(Edge f, Edge g);
    Edge constrain_rec(Edge f, Edge c);
    Edge restrict_rec(Edge f, Edge c);
    Edge replace_rec(Edge f, NodeIndex v, Edge replacement, std::uint32_t gen);
    void cofactors_at(Edge e, std::uint32_t level, Edge* hi, Edge* lo) const;

    void auto_gc_if_needed();

    // Sifting internals. Sifting moves "units": a unit is a detected
    // symmetry group (contiguous run of levels) or a single variable. With
    // sift_symmetry off every unit is a singleton and the unit machinery
    // degenerates bit-for-bit to the classical per-variable schedule.
    std::size_t swap_levels_internal(std::uint32_t upper);
    /// Exchange the k-level unit whose top is at `top` with the whole unit
    /// below (above) it; returns the neighbor unit's size in levels.
    int swap_unit_down(int top, int k);
    int swap_unit_up(int top, int k);
    /// Number of levels of the unit containing `level`, extending downward
    /// (upward). 1 unless symmetry groups are current.
    [[nodiscard]] int unit_span_down(int level) const;
    [[nodiscard]] int unit_span_up(int level) const;
    void sift_unit_to(int cur_top, int k, int target_top);
    void sift_pass();

    // Symmetry detection (see symmetry_groups()).
    [[nodiscard]] std::uint32_t sym_find(std::uint32_t v) const;
    void sym_union(std::uint32_t a, std::uint32_t b);
    /// Exact structural check that the variables at `upper` and `upper + 1`
    /// are symmetric in every root. Requires a garbage-free store.
    [[nodiscard]] bool adjacent_symmetric(std::uint32_t upper);
    void detect_symmetries();
    /// Clear the computed table only when it may hold stale entries (a node
    /// slot was freed, or an order-dependent result was cached); pure
    /// reorders keep it warm.
    void cache_clear_after_reorder();

    ManagerParams params_;
    std::vector<Node> nodes_;
    std::vector<NodeAux> aux_;              // cold section, lockstep with nodes_
    std::vector<LevelTable> tables_;        // one per level
    std::vector<std::uint32_t> level_live_; // live nodes per level
    std::vector<std::uint32_t> var_to_level_;
    std::vector<std::uint32_t> level_to_var_;
    std::vector<CacheEntry> cache_;
    mutable CacheStats cache_stats_;
    ReorderStats reorder_stats_;
    std::uint32_t free_list_ = kNil;
    std::size_t live_nodes_ = 0;   // internal nodes with ref > 0
    std::size_t dead_nodes_ = 0;   // internal nodes with ref == 0, still tabled
    std::size_t peak_nodes_ = 0;
    int op_depth_ = 0;  // >0 while a recursive core is running (blocks GC)
    bool poisoned_ = false;  // a guard/fault threw mid-operation; see poisoned()
    /// reorder_stats_ swap total at the current sift()'s entry; the
    /// sift_max_swaps ceiling is per-sift, not lifetime.
    std::uint64_t sift_swap_mark_ = 0;
    /// Throws ResourceExhausted (and poisons) when the current sift() has
    /// spent more than params_.sift_max_swaps swaps. Called at the
    /// unit-swap entry points, where no temporary handles are held.
    void check_sift_budget();

    // Interaction matrix (see recompute_interactions). interact_valid_
    // means the matrix is current; make_node keeps it current while set
    // (two row-ORs per fresh node), gc()/new_var() invalidate so the next
    // reorder recomputes a tight matrix on demand. interact_trusted_ is
    // set for the duration of a reorder operation: swaps only remove
    // variable-pair paths, so the matrix recomputed at reorder entry stays
    // a sound over-approximation throughout even as restructuring creates
    // nodes.
    std::vector<std::uint64_t> interact_;
    std::size_t interact_words_ = 0;  // 64-bit words per matrix row
    bool interact_valid_ = false;
    bool interact_trusted_ = false;
    // Symmetry union-find over variables (parent always <= child, root is
    // the smallest member). sym_valid_ means the groups describe the
    // current roots; invalidated wherever the interaction matrix is
    // (gc()/new_var()) plus manual swap_adjacent_levels, which could split
    // a group's contiguous level run. Wrong or stale groups can only cost
    // sift quality, never correctness: block moves are composed of
    // ordinary verified adjacent swaps.
    std::vector<std::uint32_t> sym_parent_;
    bool sym_valid_ = false;
    // Swap scratch, reused across the tens of thousands of adjacent swaps a
    // sift performs (three vector allocations per swap otherwise).
    std::vector<NodeIndex> swap_xs_;
    std::vector<NodeIndex> swap_ys_;
    std::vector<NodeIndex> swap_restructure_;
    /// True when the computed table may hold entries that a reorder would
    /// invalidate: a node slot was freed since the last clear (results
    /// could resurrect recycled slots), or a constrain/restrict result —
    /// which depends on the variable order — was inserted. ITE/AND/XOR
    /// entries map functions to canonical edges and survive reordering.
    bool cache_tainted_ = false;

    // Generation-stamped scratch (traversals, NodeMap, analysis memos).
    // stamp[i] == generation means "visited/set in the current pass"; a
    // reset is one counter increment, never a clear.
    std::vector<std::uint32_t> visit_stamp_;
    std::vector<NodeIndex> scratch_stack_;
    std::uint32_t traversal_gen_ = 0;
    std::vector<std::uint32_t> map_stamp_;
    std::vector<std::uint32_t> map_value_;
    std::uint32_t map_gen_ = 0;
    std::vector<double> sat_memo_;  // valid where visit_stamp_ matches
    // replace_node_with_const memo, one slot per (node, polarity).
    std::vector<std::uint32_t> replace_stamp_;
    std::vector<Edge> replace_memo_;
    std::uint32_t replace_gen_ = 0;
};

}  // namespace bdsmaj::bdd
