#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "runtime/fault_inject.hpp"

namespace bdsmaj::bdd {

// ---------------------------------------------------------------------------
// Bdd handle
// ---------------------------------------------------------------------------

Bdd::Bdd(Manager* mgr, Edge edge) : mgr_(mgr), edge_(edge) {
    // Reference already taken by the Manager factory that produced us.
}

Bdd::Bdd(const Bdd& o) : mgr_(o.mgr_), edge_(o.edge_) {
    if (mgr_ != nullptr) mgr_->inc_ref(edge_);
}

Bdd::Bdd(Bdd&& o) noexcept : mgr_(o.mgr_), edge_(o.edge_) {
    o.mgr_ = nullptr;
    o.edge_ = kEdgeInvalid;
}

Bdd& Bdd::operator=(const Bdd& o) {
    if (this == &o) return *this;
    if (o.mgr_ != nullptr) o.mgr_->inc_ref(o.edge_);
    if (mgr_ != nullptr) mgr_->dec_ref(edge_);
    mgr_ = o.mgr_;
    edge_ = o.edge_;
    return *this;
}

Bdd& Bdd::operator=(Bdd&& o) noexcept {
    if (this == &o) return *this;
    if (mgr_ != nullptr) mgr_->dec_ref(edge_);
    mgr_ = o.mgr_;
    edge_ = o.edge_;
    o.mgr_ = nullptr;
    o.edge_ = kEdgeInvalid;
    return *this;
}

Bdd::~Bdd() {
    if (mgr_ != nullptr) mgr_->dec_ref(edge_);
}

Bdd Bdd::operator!() const {
    assert(valid());
    return mgr_->from_edge(edge_not(edge_));
}

Bdd Bdd::operator&(const Bdd& o) const { return mgr_->apply_and(*this, o); }
Bdd Bdd::operator|(const Bdd& o) const { return mgr_->apply_or(*this, o); }
Bdd Bdd::operator^(const Bdd& o) const { return mgr_->apply_xor(*this, o); }

// ---------------------------------------------------------------------------
// Manager: construction, variables
// ---------------------------------------------------------------------------

Manager::Manager(int num_vars, ManagerParams params) : params_(params) {
    nodes_.reserve(1024);
    aux_.reserve(1024);
    Node terminal;
    terminal.level = kTerminalLevel;
    terminal.hi = kEdgeOne;
    terminal.lo = kEdgeOne;
    nodes_.push_back(terminal);
    NodeAux terminal_aux;
    terminal_aux.ref = 0xffffffffu;  // pinned forever
    aux_.push_back(terminal_aux);
    cache_.assign(std::size_t{1} << params_.cache_size_log2, CacheEntry{});
    for (int i = 0; i < num_vars; ++i) new_var();
}

Manager::~Manager() = default;

void Manager::reset(int num_vars, ManagerParams params) {
    assert(op_depth_ == 0 && "reset during an active operation");
#ifndef NDEBUG
    // Dead nodes keep their children referenced until a sweep; after it,
    // only nodes held by outstanding handles are still live.
    sweep_dead();
    assert(live_nodes_ == 0 && "reset with outstanding Bdd handles");
#endif
    params_ = params;
    // Node store back to just the pinned terminal. Node/NodeAux are
    // trivially destructible, so the shrink is O(1) and the grown capacity
    // — the expensive part of per-supernode construction — is retained.
    nodes_.resize(1);
    aux_.resize(1);
    nodes_[0] = Node{kTerminalLevel, kEdgeOne, kEdgeOne};
    aux_[0] = NodeAux{kNil, 0xffffffffu};
    // Per-level unique tables exactly as new_var() creates them (16
    // buckets): identical initial state keeps the grow schedule — and with
    // it every downstream decision — indistinguishable from a fresh
    // manager's.
    const auto n = static_cast<std::size_t>(num_vars);
    tables_.resize(n);
    for (LevelTable& t : tables_) {
        t.buckets.assign(16, kNil);
        t.entries = 0;
    }
    level_live_.assign(n, 0);
    var_to_level_.resize(n);
    level_to_var_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Identity order: sifting permutes var_to_level_, and flow code
        // binds leaf i to variable i at construction time.
        var_to_level_[i] = static_cast<std::uint32_t>(i);
        level_to_var_[i] = static_cast<std::uint32_t>(i);
    }
    cache_.assign(std::size_t{1} << params_.cache_size_log2, CacheEntry{});
    cache_stats_ = {};
    reorder_stats_ = {};
    free_list_ = kNil;
    live_nodes_ = 0;
    dead_nodes_ = 0;
    peak_nodes_ = 0;
    interact_.clear();
    interact_words_ = 0;
    interact_valid_ = false;
    interact_trusted_ = false;
    sym_parent_.clear();
    sym_valid_ = false;
    cache_tainted_ = false;
    // Generation-stamped scratch survives as-is: stale stamps are from
    // earlier generations and the wrap-around fill in begin_traversal() /
    // make_node_map() already covers counter overflow.
}

int Manager::new_var() {
    const auto level = static_cast<std::uint32_t>(tables_.size());
    tables_.emplace_back();
    tables_.back().buckets.assign(16, kNil);
    level_live_.push_back(0);
    var_to_level_.push_back(level);
    level_to_var_.push_back(static_cast<std::uint32_t>(var_to_level_.size() - 1));
    interact_valid_ = false;  // matrix rows are sized for the old var count
    sym_valid_ = false;       // union-find is sized for the old var count
    return static_cast<int>(var_to_level_.size() - 1);
}

std::vector<int> Manager::current_order() const {
    std::vector<int> order(level_to_var_.size());
    for (std::size_t l = 0; l < level_to_var_.size(); ++l) {
        order[l] = static_cast<int>(level_to_var_[l]);
    }
    return order;
}

Bdd Manager::one() { return from_edge(kEdgeOne); }
Bdd Manager::zero() { return from_edge(kEdgeZero); }

Bdd Manager::var_bdd(int var) {
    if (var < 0 || var >= num_vars()) {
        throw std::out_of_range("Manager::var_bdd: unknown variable");
    }
    const Edge e = make_node(var_to_level_[static_cast<std::size_t>(var)], kEdgeOne, kEdgeZero);
    return from_edge(e);
}

Bdd Manager::nvar_bdd(int var) { return !var_bdd(var); }

Bdd Manager::from_edge(Edge e) {
    assert(e != kEdgeInvalid);
    inc_ref(e);
    return Bdd(this, e);
}

// ---------------------------------------------------------------------------
// Reference counting
// ---------------------------------------------------------------------------

void Manager::inc_ref(Edge e) {
    NodeAux& a = aux_[edge_index(e)];
    if (a.ref == 0xffffffffu) return;  // saturated / terminal
    if (a.ref == 0) {
        // Resurrection of a dead-but-tabled node.
        --dead_nodes_;
        ++live_nodes_;
        ++level_live_[nodes_[edge_index(e)].level];
    }
    ++a.ref;
}

void Manager::dec_ref(Edge e) {
    NodeAux& a = aux_[edge_index(e)];
    if (a.ref == 0xffffffffu) return;
    assert(a.ref > 0);
    --a.ref;
    if (a.ref == 0) {
        ++dead_nodes_;
        --live_nodes_;
        --level_live_[nodes_[edge_index(e)].level];
    }
}

// ---------------------------------------------------------------------------
// Unique table
// ---------------------------------------------------------------------------

std::size_t Manager::bucket_of(const LevelTable& table, Edge hi, Edge lo) const {
    std::uint64_t key = (static_cast<std::uint64_t>(hi) << 32) | lo;
    key *= 0x9e3779b97f4a7c15ULL;
    key ^= key >> 29;
    return static_cast<std::size_t>(key) & (table.buckets.size() - 1);
}

void Manager::maybe_grow_table(LevelTable& table) {
    if (table.entries < table.buckets.size() * 2) return;
    std::vector<std::uint32_t> old = std::move(table.buckets);
    table.buckets.assign(old.size() * 4, kNil);
    for (std::uint32_t head : old) {
        for (std::uint32_t idx = head; idx != kNil;) {
            const std::uint32_t next = aux_[idx].next;
            const std::size_t b = bucket_of(table, nodes_[idx].hi, nodes_[idx].lo);
            aux_[idx].next = table.buckets[b];
            table.buckets[b] = idx;
            idx = next;
        }
    }
}

void Manager::size_empty_table(LevelTable& table, std::size_t expected) {
    assert(table.entries == 0);
    // Target load factor ~1 at the expected population; resizing an empty
    // table is a plain assign, no rehash. Shrinks oversized arrays too, so
    // a level whose population migrated away stops paying for it.
    std::size_t want = 16;
    while (want < expected) want <<= 1;
    if (table.buckets.size() != want) table.buckets.assign(want, kNil);
}

void Manager::table_insert(std::uint32_t level, NodeIndex idx) {
    LevelTable& table = tables_[level];
    maybe_grow_table(table);
    const std::size_t b = bucket_of(table, nodes_[idx].hi, nodes_[idx].lo);
    aux_[idx].next = table.buckets[b];
    table.buckets[b] = idx;
    ++table.entries;
}

void Manager::table_remove(std::uint32_t level, NodeIndex idx) {
    LevelTable& table = tables_[level];
    const std::size_t b = bucket_of(table, nodes_[idx].hi, nodes_[idx].lo);
    std::uint32_t* link = &table.buckets[b];
    while (*link != kNil) {
        if (*link == idx) {
            *link = aux_[idx].next;
            --table.entries;
            return;
        }
        link = &aux_[*link].next;
    }
    assert(false && "table_remove: node not found");
}

std::uint32_t Manager::alloc_slot() {
    if (free_list_ != kNil) {
        const std::uint32_t idx = free_list_;
        free_list_ = aux_[idx].next;
        return idx;
    }
    nodes_.emplace_back();
    aux_.emplace_back();
    return static_cast<std::uint32_t>(nodes_.size() - 1);
}

Edge Manager::make_node(std::uint32_t level, Edge hi, Edge lo) {
    assert(level < tables_.size());
    assert(edge_level(hi) > level && edge_level(lo) > level);
    if (hi == lo) return hi;
    bool complement_out = false;
    if (edge_complemented(hi)) {
        // Canonical form: then-edge regular; push complement to the result.
        hi = edge_not(hi);
        lo = edge_not(lo);
        complement_out = true;
    }
    LevelTable& table = tables_[level];
    // Grow before hashing so one bucket computation serves both the lookup
    // and the insert.
    maybe_grow_table(table);
    const std::size_t b = bucket_of(table, hi, lo);
    for (std::uint32_t idx = table.buckets[b]; idx != kNil; idx = aux_[idx].next) {
        if (nodes_[idx].hi == hi && nodes_[idx].lo == lo) {
            return make_edge(idx, complement_out);
        }
    }
    // Resource guard: refuse to allocate past the configured ceiling. The
    // throw leaves this call without side effects, but callers may be deep
    // inside a recursive core holding temporaries, so the manager is
    // poisoned — only handle destruction is allowed afterwards.
    if (params_.max_live_nodes != 0 &&
        live_nodes_ + dead_nodes_ >= params_.max_live_nodes) {
        poisoned_ = true;
        throw ResourceExhausted("bdd::Manager: max_live_nodes ceiling (" +
                                std::to_string(params_.max_live_nodes) + ") reached");
    }
#if defined(BDSMAJ_FAULT_INJECT)
    try {
        runtime::fault_point(runtime::FaultSite::kManagerAlloc);
    } catch (...) {
        poisoned_ = true;
        throw;
    }
#endif
    const std::uint32_t idx = alloc_slot();
    Node& n = nodes_[idx];
    n.level = level;
    n.hi = hi;
    n.lo = lo;
    aux_[idx].ref = 0;
    inc_ref(hi);
    inc_ref(lo);
    aux_[idx].next = table.buckets[b];
    table.buckets[b] = idx;
    ++table.entries;
    ++dead_nodes_;  // born dead; parents / handles will reference it
    if (live_nodes_ + dead_nodes_ > peak_nodes_) peak_nodes_ = live_nodes_ + dead_nodes_;
    // Keep the interaction matrix current between reorders. During one
    // (interact_trusted_) the update is skipped on purpose: restructuring
    // swaps only recombine existing paths — they can never create a new
    // variable pair — and folding rows here would only blur the tight
    // per-root matrix toward its transitive closure.
    if (interact_valid_ && !interact_trusted_) interaction_add_node(level, hi, lo);
    return make_edge(idx, complement_out);
}

// ---------------------------------------------------------------------------
// Computed table
// ---------------------------------------------------------------------------

std::size_t Manager::cache_slot(CacheOp op, Edge f, Edge g, Edge h) const {
    std::uint64_t key = static_cast<std::uint64_t>(f) * 0x9e3779b97f4a7c15ULL;
    key ^= static_cast<std::uint64_t>(g) * 0xc2b2ae3d27d4eb4fULL;
    key ^= static_cast<std::uint64_t>(h) * 0x165667b19e3779f9ULL;
    key ^= static_cast<std::uint64_t>(op);
    return static_cast<std::size_t>(key >> 13) & (cache_.size() - 1);
}

bool Manager::cache_probe(std::size_t slot, CacheOp op, Edge f, Edge g, Edge h,
                          Edge* out) const {
    const CacheEntry& e = cache_[slot];
    if (e.op == op && e.f == f && e.g == g && e.h == h && e.result != kEdgeInvalid) {
        *out = e.result;
        ++cache_stats_.hits;
        return true;
    }
    ++cache_stats_.misses;
    return false;
}

void Manager::cache_store(std::size_t slot, CacheOp op, Edge f, Edge g, Edge h,
                          Edge result) {
    CacheEntry& e = cache_[slot];
    ++cache_stats_.inserts;
    if (e.result != kEdgeInvalid && (e.op != op || e.f != f || e.g != g || e.h != h)) {
        ++cache_stats_.collisions;
    }
    e = CacheEntry{f, g, h, result, op};
}

bool Manager::cache_lookup(CacheOp op, Edge f, Edge g, Edge h, Edge* out) const {
    return cache_probe(cache_slot(op, f, g, h), op, f, g, h, out);
}

void Manager::cache_insert(CacheOp op, Edge f, Edge g, Edge h, Edge result) {
    // Only the generalized cofactors funnel through here, and their results
    // depend on the variable order — such entries must not survive a
    // reorder. The hot ITE/AND/XOR cores use cache_store directly; their
    // entries are order-independent (a function's edge is canonical).
    cache_tainted_ = true;
    cache_store(cache_slot(op, f, g, h), op, f, g, h, result);
}

void Manager::cache_clear() {
    for (auto& e : cache_) e = CacheEntry{};
    cache_tainted_ = false;
}

void Manager::cache_clear_after_reorder() {
    if (cache_tainted_) {
        cache_clear();
    } else {
        ++reorder_stats_.cache_clears_avoided;
    }
}

void Manager::maybe_grow_cache() {
    // Scale the computed table with the live-node population instead of
    // pinning it at its initial size: a table much smaller than the working
    // set thrashes, one much bigger wastes cache_clear() time. Never called
    // while a recursive core is running (slots must stay stable).
    assert(op_depth_ == 0);
    const std::size_t ceiling = std::size_t{1} << params_.cache_max_size_log2;
    std::size_t target = cache_.size();
    while (target < ceiling && live_nodes_ + dead_nodes_ > target) target *= 2;
    if (target == cache_.size()) return;
    std::vector<CacheEntry> old = std::move(cache_);
    cache_.assign(target, CacheEntry{});
    for (const CacheEntry& e : old) {
        if (e.result == kEdgeInvalid) continue;
        cache_[cache_slot(e.op, e.f, e.g, e.h)] = e;
    }
}

// ---------------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------------

void Manager::gc() {
    // Nothing dead: the unique tables and the computed table are both still
    // exact; skip the sweep (and keep the cached results).
    if (dead_nodes_ == 0) return;
    sweep_dead();
    cache_clear();
    // Symmetry groups describe the root set as of the last detection; a
    // user-visible collection point is where stale groups are dropped (the
    // intra-sift sweeps keep them: frees never break root symmetry).
    sym_valid_ = false;
}

void Manager::sweep_dead() {
    assert(op_depth_ == 0 && "gc during an active operation");
    if (dead_nodes_ == 0) return;
    // Sweep levels top-down: freeing a node can only kill deeper nodes. A
    // level whose table holds exactly its live population has nothing to
    // sweep (dead count per level == entries - live).
    for (std::uint32_t level = 0; level < tables_.size(); ++level) {
        LevelTable& table = tables_[level];
        if (table.entries == level_live_[level]) continue;
        for (auto& head : table.buckets) {
            std::uint32_t* link = &head;
            while (*link != kNil) {
                const std::uint32_t idx = *link;
                Node& n = nodes_[idx];
                NodeAux& a = aux_[idx];
                if (a.ref == 0) {
                    *link = a.next;
                    --table.entries;
                    dec_ref(n.hi);
                    dec_ref(n.lo);
                    n.level = kTerminalLevel;
                    n.hi = kEdgeInvalid;
                    n.lo = kEdgeInvalid;
                    a.next = free_list_;
                    free_list_ = idx;
                    --dead_nodes_;
                    // Freed slots may be recycled into different functions;
                    // any cache entry still referencing them must not be
                    // probed (callers clear before the next probe).
                    cache_tainted_ = true;
                } else {
                    link = &a.next;
                }
            }
        }
    }
    // Frees only remove variable-pair paths, so the interaction matrix
    // stays a sound over-approximation — but force the next reorder to
    // recompute a tight one rather than sifting against stale pairs.
    interact_valid_ = false;
}

void Manager::auto_gc_if_needed() {
    if (op_depth_ != 0) return;
    if (dead_nodes_ > params_.gc_dead_threshold) gc();
    maybe_grow_cache();
}

// ---------------------------------------------------------------------------
// Variable interaction matrix
//
// The classical per-root matrix: two variables interact when both appear
// in the support of a common root (an externally referenced node, or a
// dead node — the root of a garbage fragment that still constrains which
// label swaps are structurally safe). Any direct edge between an a-node
// and a b-node lies inside some root's DAG, so non-interacting adjacent
// levels can swap by label exchange with no restructuring. Reordering
// never changes root supports and only removes garbage fragments, so a
// matrix computed at reorder entry stays sound for the whole operation.
//
// Between recomputes make_node keeps the invariant
//     row[v]  ⊇  variables below any v-labeled node
// by folding both children's rows into the new node's row (conservative:
// it may only add pairs, never lose one). gc()/new_var() invalidate so the
// next reorder recomputes a tight matrix on demand.
// ---------------------------------------------------------------------------

void Manager::interaction_add_node(std::uint32_t level, Edge hi, Edge lo) {
    const std::size_t v = level_to_var_[level];
    std::uint64_t* row = &interact_[v * interact_words_];
    for (const Edge child : {hi, lo}) {
        const std::uint32_t cl = nodes_[edge_index(child)].level;
        if (cl == kTerminalLevel) continue;
        const std::size_t cv = level_to_var_[cl];
        const std::uint64_t* crow = &interact_[cv * interact_words_];
        for (std::size_t w = 0; w < interact_words_; ++w) row[w] |= crow[w];
        row[cv >> 6] |= std::uint64_t{1} << (cv & 63);
    }
}

void Manager::recompute_interactions() {
    const std::size_t n = var_to_level_.size();
    interact_words_ = (n + 63) / 64;
    interact_.assign(n * interact_words_, 0);
    if (n == 0 || nodes_.size() <= 1) {
        interact_valid_ = true;
        return;
    }
    // Per-node supports, bottom-up (children before parents), plus parent
    // reference counts: the surplus of a node's refcount over its tabled
    // parents is held by external handles, which makes it a root.
    std::vector<std::uint64_t> supp(nodes_.size() * interact_words_, 0);
    std::vector<std::uint32_t> parent_refs(nodes_.size(), 0);
    for (std::size_t l = tables_.size(); l-- > 0;) {
        for (const std::uint32_t head : tables_[l].buckets) {
            for (std::uint32_t idx = head; idx != kNil; idx = aux_[idx].next) {
                std::uint64_t* row = &supp[idx * interact_words_];
                const std::size_t v = level_to_var_[l];
                row[v >> 6] |= std::uint64_t{1} << (v & 63);
                for (const Edge child : {nodes_[idx].hi, nodes_[idx].lo}) {
                    const NodeIndex c = edge_index(child);
                    if (c == kTerminalIndex) continue;
                    ++parent_refs[c];
                    const std::uint64_t* crow = &supp[c * interact_words_];
                    for (std::size_t w = 0; w < interact_words_; ++w) {
                        row[w] |= crow[w];
                    }
                }
            }
        }
    }
    // Mark all pairs within each root's support: row[v] |= supp(root) for
    // every v in supp(root).
    for (std::size_t l = 0; l < tables_.size(); ++l) {
        for (const std::uint32_t head : tables_[l].buckets) {
            for (std::uint32_t idx = head; idx != kNil; idx = aux_[idx].next) {
                const std::uint32_t ref = aux_[idx].ref;
                if (ref != 0 && ref <= parent_refs[idx]) continue;  // not a root
                const std::uint64_t* s = &supp[idx * interact_words_];
                for (std::size_t w = 0; w < interact_words_; ++w) {
                    std::uint64_t bits = s[w];
                    while (bits != 0) {
                        const std::size_t v =
                            (w << 6) + static_cast<std::size_t>(
                                           __builtin_ctzll(bits));
                        bits &= bits - 1;
                        std::uint64_t* row = &interact_[v * interact_words_];
                        for (std::size_t k = 0; k < interact_words_; ++k) {
                            row[k] |= s[k];
                        }
                    }
                }
            }
        }
    }
    interact_valid_ = true;
}

bool Manager::vars_interact(int a, int b) {
    if (a == b) return true;
    if (!interact_valid_) recompute_interactions();
    return vars_interact_raw(a, b);
}

// ---------------------------------------------------------------------------
// Structural audit (debug / reorder invariant tests)
// ---------------------------------------------------------------------------

std::string Manager::check_integrity() const {
    if (nodes_.size() != aux_.size()) return ("nodes_/aux_ size mismatch");
    std::vector<std::uint8_t> tabled(nodes_.size(), 0);
    std::size_t live = 0, dead = 0;
    for (std::uint32_t level = 0; level < tables_.size(); ++level) {
        const LevelTable& table = tables_[level];
        std::uint32_t chained = 0, level_live = 0;
        for (const std::uint32_t head : table.buckets) {
            for (std::uint32_t idx = head; idx != kNil; idx = aux_[idx].next) {
                if (idx >= nodes_.size()) return ("chain index out of range");
                if (tabled[idx]) return ("node " + std::to_string(idx) +
                                             " chained twice");
                tabled[idx] = 1;
                ++chained;
                const Node& n = nodes_[idx];
                if (n.level != level) {
                    return ("node " + std::to_string(idx) + " at level " +
                                std::to_string(n.level) + " chained in table " +
                                std::to_string(level));
                }
                if (edge_complemented(n.hi)) return ("complemented then-edge");
                if (n.hi == n.lo) return ("redundant node survived");
                for (const Edge child : {n.hi, n.lo}) {
                    const std::uint32_t cl = nodes_[edge_index(child)].level;
                    if (cl <= level) {
                        return ("ordering violation at node " +
                                    std::to_string(idx));
                    }
                    if (interact_valid_ && cl != kTerminalLevel &&
                        !vars_interact_raw(
                            static_cast<int>(level_to_var_[level]),
                            static_cast<int>(level_to_var_[cl]))) {
                        return ("interaction matrix misses pair at node " +
                                    std::to_string(idx));
                    }
                }
                if (aux_[idx].ref > 0) {
                    ++level_live;
                    ++live;
                } else {
                    ++dead;
                }
            }
        }
        if (chained != table.entries) {
            return ("table " + std::to_string(level) + " entries " +
                        std::to_string(table.entries) + " != chained " +
                        std::to_string(chained));
        }
        if (level_live != level_live_[level]) {
            return ("level_live_[" + std::to_string(level) + "] = " +
                        std::to_string(level_live_[level]) + " but census says " +
                        std::to_string(level_live));
        }
    }
    if (live != live_nodes_) return ("live_nodes_ census mismatch");
    if (dead != dead_nodes_) return ("dead_nodes_ census mismatch");
    // Bounded walk: a corrupted free list (cyclic, or linking out of range)
    // must yield a diagnosis, not hang or index out of bounds.
    std::size_t free_count = 0;
    for (std::uint32_t idx = free_list_; idx != kNil; idx = aux_[idx].next) {
        if (idx >= nodes_.size()) return ("free-list index out of range");
        if (tabled[idx]) return ("free-list node also chained in a table");
        if (nodes_[idx].level != kTerminalLevel) {
            return ("free-list node keeps a level");
        }
        if (++free_count > nodes_.size()) {
            return ("free list is cyclic or exceeds the slot count");
        }
    }
    // Every slot is the terminal, tabled, or on the free list.
    if (1 + live + dead + free_count != nodes_.size()) {
        return ("slot accounting mismatch (leaked or double-counted slots)");
    }
    // Symmetry census: when groups are current the union-find must be
    // well-formed (parent <= child, so every chain terminates at its
    // smallest member) and each group must occupy a contiguous run of
    // levels — the invariant block moves rely on.
    if (sym_valid_) {
        if (sym_parent_.size() != var_to_level_.size()) {
            return ("symmetry union-find sized for a different var count");
        }
        for (std::size_t v = 0; v < sym_parent_.size(); ++v) {
            if (sym_parent_[v] > v) {
                return ("symmetry union-find parent above child at var " +
                        std::to_string(v));
            }
        }
        for (std::size_t v = 0; v < sym_parent_.size(); ++v) {
            const std::uint32_t root = sym_find(static_cast<std::uint32_t>(v));
            std::uint32_t lo_level = 0xffffffffu, hi_level = 0, count = 0;
            for (std::size_t u = 0; u < sym_parent_.size(); ++u) {
                if (sym_find(static_cast<std::uint32_t>(u)) != root) continue;
                const std::uint32_t l = var_to_level_[u];
                lo_level = std::min(lo_level, l);
                hi_level = std::max(hi_level, l);
                ++count;
            }
            if (hi_level - lo_level + 1 != count) {
                return ("symmetry group of var " + std::to_string(v) +
                        " is not level-contiguous");
            }
        }
    }
    return {};
}

// ---------------------------------------------------------------------------
// Generation-stamped scratch
// ---------------------------------------------------------------------------

std::uint32_t Manager::begin_traversal() {
    if (visit_stamp_.size() < nodes_.size()) visit_stamp_.resize(nodes_.size(), 0);
    if (++traversal_gen_ == 0) {
        std::fill(visit_stamp_.begin(), visit_stamp_.end(), 0);
        traversal_gen_ = 1;
    }
    return traversal_gen_;
}

Manager::NodeMap Manager::make_node_map() {
    if (map_stamp_.size() < nodes_.size()) {
        map_stamp_.resize(nodes_.size(), 0);
        map_value_.resize(nodes_.size(), 0);
    }
    if (++map_gen_ == 0) {
        std::fill(map_stamp_.begin(), map_stamp_.end(), 0);
        map_gen_ = 1;
    }
    return NodeMap(this, map_gen_);
}

// ---------------------------------------------------------------------------
// Structure access
// ---------------------------------------------------------------------------

std::uint32_t Manager::edge_level(Edge e) const { return nodes_[edge_index(e)].level; }

int Manager::edge_top_var(Edge e) const {
    const std::uint32_t level = edge_level(e);
    return level == kTerminalLevel ? -1 : static_cast<int>(level_to_var_[level]);
}

Edge Manager::edge_then(Edge e) const {
    const Node& n = nodes_[edge_index(e)];
    return edge_complemented(e) ? edge_not(n.hi) : n.hi;
}

Edge Manager::edge_else(Edge e) const {
    const Node& n = nodes_[edge_index(e)];
    return edge_complemented(e) ? edge_not(n.lo) : n.lo;
}

void Manager::cofactors_at(Edge e, std::uint32_t level, Edge* hi, Edge* lo) const {
    if (edge_level(e) != level) {
        *hi = e;
        *lo = e;
        return;
    }
    *hi = edge_then(e);
    *lo = edge_else(e);
}

Bdd Manager::node_function(NodeIndex v) { return from_edge(make_edge(v, false)); }

}  // namespace bdsmaj::bdd
