#pragma once
// Pluggable decomposition strategies for the BDD engine.
//
// Every stage of the paper's priority ladder is a self-contained
// DecompStrategy that inspects one recursion step (a function, its
// dominator analysis) and proposes at most one scored Candidate. The
// engine assembles strategies into an ordered pipeline:
//
//   * kFirstFit   — strategies are consulted in order and the first
//                   proposal wins: the paper's ladder semantics. The
//                   `paper` preset reproduces the pre-framework engine
//                   byte-for-byte.
//   * kBestCost   — every strategy proposes; candidate_gate_cost()
//                   scores all candidates by estimated gate count and the
//                   cheapest wins (ties go to the earlier strategy in the
//                   pipeline order).
//
// Pipelines are configured by named presets (preset_catalog()); the name
// travels EngineParams -> DecompFlowParams -> flows/SynthesisService ->
// `bdsmaj_cli --preset`. Every candidate is a valid decomposition by
// construction, so any pipeline yields an equivalent network — presets
// only trade gate count, structure, and runtime.

#include <memory>
#include <optional>
#include <string>
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
/// kExact, a cached replay program that covers the whole cone).
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
    /// kExact payload: the cone binding and the cached program.
    ConeMatch match;
    std::shared_ptr<const ExactStructure> structure;
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

class DecompStrategy {
public:
    virtual ~DecompStrategy() = default;
    [[nodiscard]] virtual StrategyKind kind() const noexcept = 0;
    [[nodiscard]] virtual std::string_view name() const noexcept = 0;
    /// The strategy's best candidate for ctx.f, or nullopt when the
    /// strategy does not apply (or its internal acceptance gate rejects).
    [[nodiscard]] virtual std::optional<Candidate> propose(StepContext& ctx) = 0;
};

/// Scores a candidate for kBestCost selection: the gates it is expected
/// to emit. The estimate is heuristic (an operand BDD of n nodes lands
/// near n gates) except for exact and symmetric candidates, whose gate
/// count is known before anything is emitted.
[[nodiscard]] double candidate_gate_cost(const Candidate& cand, StepContext& ctx);

[[nodiscard]] std::unique_ptr<DecompStrategy> make_strategy(StrategyKind kind);
[[nodiscard]] std::string_view strategy_name(StrategyKind kind);

/// An ordered strategy pipeline plus its selection rule. Resolution
/// guarantees kShannonMux is present (appended if missing), so every
/// pipeline terminates.
struct StrategyPipelineConfig {
    std::vector<StrategyKind> order;
    SelectionMode selection = SelectionMode::kFirstFit;
};

struct PresetInfo {
    std::string name;
    std::string description;
};

/// The named presets, in catalog order. `paper` is the default and is
/// byte-identical to the pre-framework ladder.
[[nodiscard]] const std::vector<PresetInfo>& preset_catalog();
[[nodiscard]] bool is_known_preset(std::string_view name);
/// Throws std::invalid_argument (listing the catalog) on unknown names.
[[nodiscard]] StrategyPipelineConfig preset_pipeline(std::string_view name);
/// Whether a preset turns symmetry-aware sifting on when the caller left
/// the knob at its "preset decides" default. `paper` (and the other pinned
/// baselines) keep it off so their fingerprints stay byte-identical.
[[nodiscard]] bool preset_sift_symmetry_default(std::string_view name);

}  // namespace bdsmaj::decomp
