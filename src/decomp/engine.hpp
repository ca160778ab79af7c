#pragma once
// The BDD decomposition engine (paper SIV-B): recursively decomposes a BDD
// into a factoring tree emitted through any GateSink (the hash-consing
// network builder for on-line logic sharing, SIV-C, or a worker's GateTape).
//
// Each recursion step computes the dominator analysis once, walks the
// stage order of the active preset (strategy.hpp) and emits the winning
// Candidate — first-fit for the paper's ladder semantics, or lowest
// estimated gate count for the `best-cost` preset. The stages themselves
// are the propose_* functions of strategy.cpp:
//
//   0. constants / literals terminate the recursion (engine-internal);
//   1. propose_symmetric        — optional: totally symmetric cones as
//      ones-counting MAJ networks (decomp/symmetric.hpp);
//   2. propose_exact_small_cone — optional: precompiled minimal structures
//      for cones with <= 4 support variables (decomp/exact.hpp);
//   3. propose_majority         — MAJ "on the top of the dominator nodes
//      search", accepted only when globally advantageous (k_global);
//   4. propose_simple_dominator — 1-, 0-, x-dominators -> AND / OR / XOR;
//   5. propose_generalized_xor  — non-disjoint XOR split when both parts
//      shrink;
//   6. propose_shannon_mux      — cofactoring on the top variable, the
//      guaranteed last resort.
//
// The order is selected by EngineParams::preset (see presets()): `paper`
// reproduces the pre-framework ladder byte-for-byte, the exact /
// symmetry / best-cost presets trade structure for gate count, and
// use_majority = false skips the majority stage of any preset — the
// BDS-PGA baseline of Table I is `paper` without it, which is exactly how
// the flows request it. Every candidate is a valid decomposition by
// construction, so all presets yield functionally equivalent networks.

#include <string>
#include <unordered_map>

#include "bdd/bdd.hpp"
#include "decomp/maj_decomp.hpp"
#include "decomp/strategy.hpp"
#include "network/gate_sink.hpp"

namespace bdsmaj::decomp {

struct EngineParams {
    bool use_majority = true;  ///< false => skip the majority stage (BDS-PGA)
    MajDecompParams maj;
    /// Named preset (see presets()); resolved once per decomposer.
    /// Unknown names throw std::invalid_argument at construction.
    std::string preset = "paper";
    /// Support cap for the exact cone strategy, served from the
    /// pre-enumerated NPN table (decomp/exact.hpp). Values above
    /// kMaxExactSupport (4) act as 4.
    int exact_max_support = kMaxExactSupport;
};

/// Counts of applied decompositions, one increment per recursion step.
/// cone_cache_* describe the process-wide cone cache and are the only
/// fields that depend on prior process history, so they are excluded from
/// determinism fingerprints; everything else is a pure function of input
/// and preset.
struct EngineStats {
    int and_steps = 0;
    int or_steps = 0;
    int xor_steps = 0;      ///< simple-dominator + generalized XOR steps
    int maj_steps = 0;
    int mux_steps = 0;
    int exact_steps = 0;    ///< whole cones served by the exact backend
    int symmetric_steps = 0;   ///< cones served as ones-counting networks
    int gen_xor_steps = 0;  ///< the generalized (stage 3) subset of xor_steps
    int maj_attempts = 0;   ///< majority decompositions evaluated
    int maj_rejected = 0;   ///< failed the global advantage gate
    int literal_leaves = 0;
    // Symmetric-cone census telemetry: cones that passed the cheap size
    // filter and entered the cofactor-pair check, and the subset confirmed
    // totally symmetric (served or not — the profitability gate decides
    // separately, counted by symmetric_steps).
    long long sym_cone_checks = 0;
    long long sym_cone_total = 0;
    // Cone-memoization telemetry (decomp/cone_cache.hpp; filled by the
    // flow layer). Hit/miss/eviction counts depend on prior process
    // history — a cone decomposed by an earlier run or a concurrent worker
    // is a hit here — so all cone_cache_* fields stay outside the
    // determinism fingerprints. The decomposition RESULTS are
    // history-independent either way: a hit replays the byte-identical
    // tape a cold run would have produced.
    long long cone_cache_hits = 0;
    long long cone_cache_misses = 0;
    long long cone_cache_evictions = 0;  ///< evictions during this run
    long long cone_cache_bytes = 0;      ///< cache footprint at run end
    // Reordering effort of the per-supernode managers (filled by the flow
    // layer, not the decomposer). Sums/max over supernodes are
    // order-independent, so these stay deterministic at any job count —
    // but they are telemetry, not part of the engine-step fingerprints.
    long long sift_swaps = 0;       ///< structural adjacent-level swaps
    long long sift_fast_swaps = 0;  ///< label-only swaps of non-interacting levels
    long long sift_lb_aborts = 0;   ///< sift directions cut by the lower bound
    long long peak_bdd_nodes = 0;   ///< max peak node count over the managers
    long long sift_sym_groups = 0;  ///< symmetry groups detected during sifting
    long long sift_block_swaps = 0; ///< multi-level block moves during sifting
    // Graceful-degradation telemetry (filled by the flow layer): supernodes
    // whose tape was produced by a degrade-ladder stage instead of the
    // requested parameters — because the soft budget expired or a resource
    // guard threw ResourceExhausted mid-cone. Timing-dependent under a soft
    // budget, so outside the determinism fingerprints; zero whenever no
    // deadline/budget/guard is configured.
    long long degraded_supernodes = 0;
    long long resource_exhausted_cones = 0;  ///< cones retried after a guard trip
    // Retired SAT exact-tier counters for 5-6 var cones. That tier is gone
    // and these always read 0; they stay only because the benchmark in
    // perfbench/src/driver.cpp still reads them.
    int exact_wide_steps = 0;
    long long exact_sat_synthesized = 0;
    long long exact_sat_fallbacks = 0;
    long long exact_sat_conflicts = 0;

    EngineStats& operator+=(const EngineStats& o);

    /// Total accepted decomposition steps (excludes literal leaves).
    [[nodiscard]] int total_steps() const noexcept {
        return and_steps + or_steps + xor_steps + maj_steps + mux_steps +
               exact_steps + symmetric_steps;
    }
    /// Steps credited to one strategy; summing over all strategies yields
    /// total_steps() (tests enforce it).
    [[nodiscard]] int steps_for(StrategyKind kind) const noexcept;
};

/// Decomposes functions of one BDD manager into gates over leaf signals,
/// emitted through any GateSink (the shared hash-consing builder for
/// direct serial emission, a GateTape for an isolated parallel worker).
/// Leaf signal i corresponds to manager variable i. The memoization across
/// calls realizes BDD-level sharing inside a supernode.
class BddDecomposer {
public:
    /// Throws std::invalid_argument when params.preset is unknown.
    BddDecomposer(bdd::Manager& mgr, net::GateSink& sink,
                  std::vector<net::Signal> leaves, EngineParams params = {});

    /// Decompose `f` and return the signal computing it.
    [[nodiscard]] net::Signal decompose(const bdd::Bdd& f);

    [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

private:
    net::Signal decompose_edge(bdd::Edge e);
    net::Signal decompose_regular(bdd::Edge e);
    net::Signal emit(const Candidate& cand);

    bdd::Manager& mgr_;
    net::GateSink& builder_;
    std::vector<net::Signal> leaves_;
    EngineParams params_;
    const Preset& preset_;
    EngineStats stats_;
    std::unordered_map<bdd::Edge, net::Signal> memo_;  // regular edges only
    /// Keeps every memoized function referenced: a bare Edge key would dangle
    /// once garbage collection reuses its node slot for a different function.
    std::vector<bdd::Bdd> memo_pins_;
};

}  // namespace bdsmaj::decomp
