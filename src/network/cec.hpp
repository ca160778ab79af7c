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

/// Tuning knobs for the CEC oracle. The defaults are what every flow
/// uses; the bench harnesses vary `engine` and `sim_rounds`, and the tests
/// turn `fraig` off for their reference mode.
struct CecParams {
    EquivEngine engine = EquivEngine::kAuto;
    /// Plain random-simulation refutation rounds (64 patterns each) run
    /// before any proof work.
    int sim_rounds = 64;
    /// Learn internal equivalences as cut-points before the output miters.
    /// Off = plain per-output miter SAT (reference mode for testing).
    bool fraig = true;
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

/// The equivalence sign-off, with a selectable engine. The default
/// (kAuto) is exact at ANY input count:
///   kAuto : random simulation, then BDD (at most 20 inputs) or SAT.
///   kBdd  : random simulation, then the BDD proof regardless of width.
///   kSat  : random simulation, then the SAT miter sweep.
///   kSim  : random simulation only — agreement is NOT exact.
/// Except under kSim, the returned verdict always has `exact == true`.
[[nodiscard]] EquivalenceResult check_equivalent(const Network& a, const Network& b,
                                                 const CecParams& params = {},
                                                 CecStats* stats = nullptr);

}  // namespace bdsmaj::net
