#pragma once
// The decomposition strategies of the BDD engine and the named presets
// that order them.
//
// Every stage of the paper's priority ladder is a plain function that
// inspects one recursion step (a function, its dominator analysis) and
// proposes at most one scored Candidate; propose() picks the function for
// a StrategyKind. A preset is one row of a constant table: a stage order,
// a selection rule and a sift-symmetry default. The engine walks the
// order of its preset:
//
//   * kFirstFit   — stages are consulted in order and the first proposal
//                   wins: the paper's ladder semantics. The `paper`
//                   preset reproduces the pre-framework engine
//                   byte-for-byte.
//   * kBestCost   — every stage proposes; candidate_gate_cost() scores
//                   all candidates by estimated gate count and the
//                   cheapest wins (ties go to the earlier stage in the
//                   order).
//
// The preset name travels EngineParams -> DecompFlowParams ->
// flows/SynthesisService -> `bdsmaj_cli --preset`. Every candidate is a
// valid decomposition by construction, so any preset yields an equivalent
// network — presets only trade gate count, structure, and runtime.

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "bdd/bdd.hpp"
#include "decomp/dominators.hpp"
#include "decomp/exact.hpp"
#include "decomp/symmetric.hpp"

namespace bdsmaj::decomp {

struct EngineParams;
struct EngineStats;

enum class StrategyKind {
    kSymmetric,        ///< totally symmetric cones -> ones-counting MAJ network
    kExactSmallCone,   ///< exact structures for cones on <= 4 vars
    kMajority,         ///< paper stage 1: MAJ on top of the dominator search
    kSimpleDominator,  ///< paper stage 2: 1-/0-/x-dominators -> AND/OR/XOR
    kGeneralizedXor,   ///< paper stage 3: non-disjoint XOR split
    kShannonMux,       ///< paper stage 4: Shannon cofactoring (always fires)
};

enum class SelectionMode { kFirstFit, kBestCost };

/// What one strategy proposes for one recursion step: the operator to
/// emit plus the sub-functions the engine should recurse into (or, for
/// kExact, a table replay program that covers the whole cone).
struct Candidate {
    StrategyKind source = StrategyKind::kShannonMux;
    enum class Op {
        kAnd, kOr, kXor, kMaj, kMux, kExact, kSymmetric
    } op = Op::kMux;
    /// Recursion operands: AND/OR/XOR use {a = quotient, b = divisor};
    /// MAJ uses {a, b, c}; MUX uses {a = then-cofactor, b = else-cofactor}
    /// with `mux_var` as the select literal.
    bdd::Bdd a, b, c;
    int mux_var = -1;
    /// kExact payload: the cone binding and the compiled table program.
    ConeMatch match;
    const ExactStructure* structure = nullptr;
    /// kSymmetric payload: the cone's support (manager var indices, in
    /// support order) and its ones-count value vector.
    std::vector<int> sym_vars;
    SymmetricValues sym_values;
};

/// One recursion step as seen by strategies: the function, its dominator
/// analysis (shared, computed once per step by the engine), and the
/// engine's parameters/stats (strategies account their own attempt
/// counters; the engine accounts accepted steps).
struct StepContext {
    bdd::Manager& mgr;
    const bdd::Bdd& f;
    DominatorAnalysis& analysis;
    std::size_t f_size = 0;
    const EngineParams& params;
    EngineStats& stats;
};

/// The candidate of the `kind` stage for ctx.f, or nullopt when the stage
/// does not apply (or its internal acceptance gate rejects). kShannonMux
/// always proposes.
[[nodiscard]] std::optional<Candidate> propose(StrategyKind kind, StepContext& ctx);

/// Scores a candidate for kBestCost selection: the gates it is expected
/// to emit. The estimate is heuristic (an operand BDD of n nodes lands
/// near n gates) except for exact and symmetric candidates, whose gate
/// count is known before anything is emitted.
[[nodiscard]] double candidate_gate_cost(const Candidate& cand, StepContext& ctx);

/// One named preset. Every order ends in kShannonMux, which always
/// proposes, so every preset terminates (tests check the table).
struct Preset {
    std::string_view name;
    std::string_view description;
    std::span<const StrategyKind> order;
    SelectionMode selection;
    /// Symmetry-aware block sifting for the per-supernode managers.
    /// `paper` and `shannon` keep it off so their fingerprints stay
    /// byte-identical.
    bool sift_symmetry;
};

/// The presets, in catalog order. `paper` is the default and is
/// byte-identical to the pre-framework ladder.
[[nodiscard]] std::span<const Preset> presets();
/// The preset called `name`. Throws std::invalid_argument (listing the
/// catalog) on unknown names.
[[nodiscard]] const Preset& find_preset(std::string_view name);

}  // namespace bdsmaj::decomp
