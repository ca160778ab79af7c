#pragma once
// Compact CDCL SAT solver: the exact-decision substrate behind the
// combinational equivalence oracle (network/cec.hpp).
//
// MiniSat-family architecture, trimmed to what the synthesis stack needs:
//   * two-literal watching with blocker caching,
//   * first-UIP conflict analysis with basic recursive-free clause
//     minimization,
//   * VSIDS branching (exponential decay, heap order) with phase saving,
//   * Luby restarts and activity-driven learned-clause reduction,
//   * incremental solving under assumptions: clauses may be added between
//     solve() calls and stay learned across them, which is what lets the
//     equivalence checker discharge hundreds of candidate-node miters
//     against one shared CNF,
//   * conflict budgets, so callers can bound speculative queries and fall
//     back (the answer is kUnknown, never a wrong verdict).
//
// Clauses live in one flat arena (ClauseRef = offset); a clause header
// carries size/learnt/dead flags and learned-clause activity. The solver
// never frees arena space mid-run — per-query solvers are short-lived and
// reduce_db() only detaches — so refs stay stable across learning.

#include <cstdint>
#include <vector>

namespace bdsmaj::sat {

using Var = std::int32_t;

/// Literal: variable with polarity, MiniSat encoding (2*var + negated).
/// Invalid literals compare equal to kUndefLit.
struct Lit {
    std::int32_t x = -2;

    [[nodiscard]] static Lit make(Var v, bool negated = false) {
        return Lit{(v << 1) | static_cast<std::int32_t>(negated)};
    }
    [[nodiscard]] Var var() const noexcept { return x >> 1; }
    [[nodiscard]] bool negated() const noexcept { return (x & 1) != 0; }
    [[nodiscard]] Lit operator~() const noexcept { return Lit{x ^ 1}; }
    /// XOR with a polarity flag: `lit ^ true` complements.
    [[nodiscard]] Lit operator^(bool b) const noexcept {
        return Lit{x ^ static_cast<std::int32_t>(b)};
    }
    bool operator==(const Lit&) const = default;
};

inline constexpr Lit kUndefLit{-2};

/// Tri-state assignment value.
enum class Value : std::uint8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

[[nodiscard]] inline Value operator^(Value v, bool b) {
    return v == Value::kUndef
               ? Value::kUndef
               : static_cast<Value>(static_cast<std::uint8_t>(v) ^
                                    static_cast<std::uint8_t>(b));
}

enum class SolveResult { kSat, kUnsat, kUnknown };

struct SolverStats {
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learned_clauses = 0;
    std::uint64_t learned_literals = 0;
    std::uint64_t minimized_literals = 0;  ///< removed by clause minimization
    std::uint64_t db_reductions = 0;
};

class Solver {
public:
    Solver();

    // ---- Problem construction ---------------------------------------------
    [[nodiscard]] Var new_var();
    [[nodiscard]] int num_vars() const noexcept { return static_cast<int>(assign_.size()); }

    /// Add a clause (empty = immediate contradiction). Literals are
    /// deduplicated; tautologies are dropped; level-0 false literals are
    /// removed. Returns false when the formula became unsatisfiable at
    /// level 0 (the solver stays usable only for reporting kUnsat).
    bool add_clause(std::vector<Lit> lits);
    bool add_clause(Lit a) { return add_clause(std::vector<Lit>{a}); }
    bool add_clause(Lit a, Lit b) { return add_clause(std::vector<Lit>{a, b}); }
    bool add_clause(Lit a, Lit b, Lit c) { return add_clause(std::vector<Lit>{a, b, c}); }

    // ---- Solving -----------------------------------------------------------
    /// Solve under `assumptions` (each forced true for this call only).
    /// `conflict_limit` <= 0 means unbounded; hitting the budget yields
    /// kUnknown with the solver reset to level 0 and reusable.
    [[nodiscard]] SolveResult solve(const std::vector<Lit>& assumptions = {},
                                    std::int64_t conflict_limit = 0);

    /// Model access after kSat: the value a variable/literal took.
    [[nodiscard]] Value model_value(Var v) const { return model_[static_cast<std::size_t>(v)]; }
    [[nodiscard]] bool model_true(Lit p) const {
        return (model_[static_cast<std::size_t>(p.var())] ^ p.negated()) == Value::kTrue;
    }

    /// After kUnsat under assumptions: the subset of assumptions the proof
    /// used (negated — the standard "final conflict" clause). Empty when
    /// the formula is unsatisfiable regardless of assumptions.
    [[nodiscard]] const std::vector<Lit>& conflict_core() const noexcept { return conflict_; }

    /// Current level-0 value of a variable (kUndef if unfixed): what the
    /// encoder uses to constant-fold against already-proven units.
    [[nodiscard]] Value fixed_value(Var v) const;

    [[nodiscard]] const SolverStats& stats() const noexcept { return stats_; }
    [[nodiscard]] bool okay() const noexcept { return ok_; }

private:
    using ClauseRef = std::uint32_t;
    static constexpr ClauseRef kNoClause = ~ClauseRef{0};

    // Arena clause layout: [header][activity (learnt only)][lits...].
    // Header: size << 2 | learnt << 1 | dead.
    struct Watcher {
        ClauseRef cref = kNoClause;
        Lit blocker = kUndefLit;
    };

    [[nodiscard]] std::uint32_t clause_size(ClauseRef c) const { return arena_[c] >> 2; }
    [[nodiscard]] bool clause_learnt(ClauseRef c) const { return (arena_[c] & 2) != 0; }
    [[nodiscard]] bool clause_dead(ClauseRef c) const { return (arena_[c] & 1) != 0; }
    [[nodiscard]] Lit* clause_lits(ClauseRef c) {
        return reinterpret_cast<Lit*>(&arena_[c + 1 + ((arena_[c] & 2) ? 1 : 0)]);
    }
    [[nodiscard]] float& clause_activity(ClauseRef c) {
        return reinterpret_cast<float&>(arena_[c + 1]);
    }

    [[nodiscard]] Value value(Lit p) const {
        return assign_[static_cast<std::size_t>(p.var())] ^ p.negated();
    }
    [[nodiscard]] int decision_level() const noexcept { return static_cast<int>(trail_lim_.size()); }

    ClauseRef alloc_clause(const std::vector<Lit>& lits, bool learnt);
    void attach_clause(ClauseRef c);
    void detach_clause(ClauseRef c);
    void unchecked_enqueue(Lit p, ClauseRef reason);
    ClauseRef propagate();
    void analyze(ClauseRef confl, std::vector<Lit>& out_learnt, int& out_btlevel);
    void analyze_final(Lit p);
    void cancel_until(int level);
    [[nodiscard]] Lit pick_branch_lit();
    SolveResult search(std::int64_t conflict_budget);
    void reduce_db();

    // VSIDS heap.
    void var_bump(Var v);
    void var_decay() { var_inc_ *= (1.0 / 0.95); }
    void heap_insert(Var v);
    [[nodiscard]] Var heap_pop();
    void heap_sift_up(int i);
    void heap_sift_down(int i);
    [[nodiscard]] bool heap_less(Var a, Var b) const {
        return activity_[static_cast<std::size_t>(a)] > activity_[static_cast<std::size_t>(b)];
    }

    void clause_bump(ClauseRef c);

    bool ok_ = true;
    std::vector<std::uint32_t> arena_;
    std::vector<ClauseRef> clauses_;  ///< problem clauses
    std::vector<ClauseRef> learnts_;
    std::vector<std::vector<Watcher>> watches_;  ///< indexed by Lit.x

    std::vector<Value> assign_;       ///< per var
    std::vector<Value> model_;        ///< snapshot at kSat
    std::vector<ClauseRef> reason_;   ///< per var
    std::vector<std::int32_t> level_; ///< per var
    std::vector<Lit> trail_;
    std::vector<std::int32_t> trail_lim_;
    std::size_t qhead_ = 0;

    std::vector<double> activity_;
    double var_inc_ = 1.0;
    std::vector<Var> heap_;
    std::vector<std::int32_t> heap_pos_;  ///< -1 = not in heap
    std::vector<std::uint8_t> polarity_;  ///< saved phase (1 = last true)

    double cla_inc_ = 1.0;
    double max_learnts_ = 0;

    std::vector<Lit> assumptions_;
    std::vector<Lit> conflict_;
    std::vector<std::uint8_t> seen_;
    std::vector<Lit> analyze_clear_;  ///< pre-minimization learnt set

    SolverStats stats_;
};

}  // namespace bdsmaj::sat
