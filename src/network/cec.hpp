#pragma once
// Simulation-guided combinational equivalence checking (CEC).
//
// The exact sign-off oracle behind check_equivalent(): bit-parallel random
// simulation refutes cheap mismatches first; what survives is proven by a
// global BDD on narrow circuits and, above 20 inputs, with per-output CNF
// miters over the in-repo CDCL solver (sat/solver.hpp).
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
/// uses; the bench harnesses vary `sim_rounds`, and the tests turn `fraig`
/// off for their reference mode.
struct CecParams {
    /// Plain random-simulation refutation rounds (64 patterns each) run
    /// before any proof work.
    int sim_rounds = 64;
    /// Learn internal equivalences as cut-points before the output miters.
    /// Off = plain per-output miter SAT (reference mode for testing).
    bool fraig = true;
};

/// Observability counters filled by the SAT engine (zeros for a BDD proof).
/// Every check adds to them, so one CecStats can sum several checks.
struct CecStats {
    std::uint64_t sim_rounds = 0;           ///< total simulation rounds run
    std::uint64_t candidate_pairs = 0;      ///< internal equalities attempted
    std::uint64_t proved_internal = 0;      ///< ... proven and forced as cut-points
    std::uint64_t refuted_internal = 0;     ///< ... refuted by a SAT model
    std::uint64_t unknown_internal = 0;     ///< ... skipped on conflict budget
    std::uint64_t sat_calls = 0;            ///< total solver queries
    std::uint64_t conflicts = 0;            ///< total solver conflicts
};

/// SAT miter equivalence proof (exact at any input count). Networks are
/// matched positionally on inputs and outputs. Counters add to `stats`.
[[nodiscard]] EquivalenceResult sat_equivalent(const Network& a, const Network& b,
                                               const CecParams& params = {},
                                               CecStats* stats = nullptr);

/// The equivalence sign-off of every flow: random simulation refutes
/// first, then a global BDD proves at most 20 inputs and the SAT miter
/// sweep proves anything wider. The verdict always has `exact == true`;
/// callers that want one engine call bdd_equivalent/sat_equivalent.
[[nodiscard]] EquivalenceResult check_equivalent(const Network& a, const Network& b,
                                                 const CecParams& params = {},
                                                 CecStats* stats = nullptr);

}  // namespace bdsmaj::net
