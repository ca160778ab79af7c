#pragma once
// Simulation-guided combinational equivalence checking (CEC).
//
// The exact sign-off oracle behind check_equivalent(): bit-parallel random
// simulation refutes cheap mismatches first; what survives is proven with
// per-output CNF miters over the in-repo CDCL solver (sat/solver.hpp).
// Before touching the output miters, internal nodes of both networks are
// grouped into candidate-equivalence classes by their simulation
// signatures (fraiging-lite) and the candidates are discharged with
// bounded SAT queries in topological order; every proven equality becomes
// a unit-forced cut-point in the shared CNF, which is what makes
// multiplier-sized miters tractable — decomposition preserves supernode
// boundary functions, so the two networks are riddled with internal
// equivalences the signatures find.
//
// Every inequivalence verdict carries a concrete counterexample extracted
// from the SAT model (or the failing simulation word) and is re-verified
// by single-pattern simulation before it reaches the caller.

#include <cstdint>

#include "network/simulate.hpp"

namespace bdsmaj::net {

/// Tuning knobs for the CEC oracle. The defaults are what every flow and
/// test uses; the bench harness varies `engine` only.
struct CecParams {
    EquivEngine engine = EquivEngine::kAuto;
    /// Plain random-simulation refutation rounds (64 patterns each) run
    /// before any proof work.
    int sim_rounds = 64;
    /// Signature rounds used to build candidate-equivalence classes for
    /// the SAT engine (64 patterns each; counterexample patterns from
    /// failed candidate proofs are appended as extra rounds).
    int signature_rounds = 4;
    std::uint64_t seed = 0x5eed;
    /// kAuto proves with a global BDD when the input count is at most
    /// this, and with the SAT miter sweep above it.
    int bdd_input_limit = 20;
    /// Learn internal equivalences as cut-points before the output miters.
    /// Off = plain per-output miter SAT (reference mode for testing).
    bool fraig = true;
    /// Conflict budget per internal candidate query; exhausted candidates
    /// are skipped (never unsound). <= 0 means unbounded.
    std::int64_t internal_conflict_limit = 2000;
    /// Conflict budget per output miter; 0/negative = unbounded (output
    /// proofs are the actual sign-off and must not silently give up —
    /// exhausting a positive budget here throws).
    std::int64_t output_conflict_limit = 0;
};

/// Observability counters filled by the SAT engine (zeros for bdd/sim).
struct CecStats {
    std::uint64_t sim_rounds = 0;           ///< total simulation rounds run
    std::uint64_t candidate_pairs = 0;      ///< internal equalities attempted
    std::uint64_t proved_internal = 0;      ///< ... proven and forced as cut-points
    std::uint64_t refuted_internal = 0;     ///< ... refuted by a SAT model
    std::uint64_t unknown_internal = 0;     ///< ... skipped on conflict budget
    std::uint64_t sat_calls = 0;            ///< total solver queries
    std::uint64_t conflicts = 0;            ///< total solver conflicts

    CecStats& operator+=(const CecStats& o) {
        sim_rounds += o.sim_rounds;
        candidate_pairs += o.candidate_pairs;
        proved_internal += o.proved_internal;
        refuted_internal += o.refuted_internal;
        unknown_internal += o.unknown_internal;
        sat_calls += o.sat_calls;
        conflicts += o.conflicts;
        return *this;
    }
};

/// SAT miter equivalence proof (exact at any input count). Networks are
/// matched positionally on inputs and outputs. `params.engine` is ignored.
[[nodiscard]] EquivalenceResult sat_equivalent(const Network& a, const Network& b,
                                               const CecParams& params = {},
                                               CecStats* stats = nullptr);

/// Engine-selectable equivalence oracle.
///   kAuto : random simulation, then BDD (inputs <= bdd_input_limit) or SAT.
///   kBdd  : random simulation, then the BDD proof regardless of width.
///   kSat  : random simulation, then the SAT miter sweep.
///   kSim  : random simulation only — agreement is NOT exact.
/// Except under kSim, the returned verdict always has `exact == true`.
[[nodiscard]] EquivalenceResult check_equivalent(const Network& a, const Network& b,
                                                 const CecParams& params,
                                                 CecStats* stats = nullptr);

}  // namespace bdsmaj::net
