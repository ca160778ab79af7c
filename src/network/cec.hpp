#pragma once
// Combinational equivalence checking (CEC): the one module that issues
// equivalence verdicts.
//
// check_equivalent() is the sign-off of every flow. Up to 12 inputs it
// simulates all 2^n input patterns, 64 to a word (exhaustive simulation,
// which is a proof). Wider circuits go through bit-parallel random
// simulation first, which refutes cheap mismatches. Up to 20 inputs, what
// survives is proven by a global BDD under a cap on allocated nodes. Narrow
// control logic finishes under the guard; XOR/MAJ datapath BDDs trip it
// and are proven by exhaustive simulation instead. Above 20 inputs the
// proof uses per-output CNF miters over the in-repo CDCL solver
// (sat/solver.hpp).
// Before touching the output miters, internal nodes of both networks are
// grouped into candidate-equivalence classes by their simulation
// signatures (fraiging-lite) and the candidates are discharged with
// bounded SAT queries in topological order; every proven equality becomes
// a unit-forced cut-point in the shared CNF, which is what makes
// multiplier-sized miters tractable — decomposition preserves supernode
// boundary functions, so the two networks are riddled with internal
// equivalences the signatures find.
//
// Every verdict is exact: a proof, an I/O-shape mismatch, or a concrete
// counterexample (from the failing simulation word, the BDD difference or
// the SAT model) re-verified by single-pattern simulation before it
// reaches the caller.

#include <cstdint>
#include <string>
#include <vector>

#include "network/network.hpp"

namespace bdsmaj::net {

/// The engine behind an equivalence verdict. kSim tags a refutation by
/// check_equivalent's random pre-pass (and its I/O-shape check); kBdd and
/// kSat tag the proofs and refutations of the global BDD and the SAT
/// miters; kExhaustive tags those of check_equivalent's exhaustive
/// simulation of all 2^n input patterns.
/// kAuto is no engine and no verdict carries it: it is kept only so that
/// existing callers that still assign FlowOptions::oracle keep compiling.
enum class EquivEngine : std::uint8_t { kAuto, kBdd, kSat, kSim, kExhaustive };

[[nodiscard]] const char* equiv_engine_name(EquivEngine engine);

/// Result of an equivalence query.
struct EquivalenceResult {
    bool equivalent = false;
    /// Engine that produced the verdict (never kAuto).
    EquivEngine engine = EquivEngine::kSim;
    std::string reason;  // human-readable mismatch description
    /// On inequivalence with a known witness: the failing primary-input
    /// assignment (positionally indexed) and the differing output port.
    std::vector<bool> counterexample;
    int failing_output = -1;
};

/// Tuning knobs for the SAT engine. The default is what every flow uses;
/// the tests turn `fraig` off for their reference mode.
struct CecParams {
    /// Learn internal equivalences as cut-points before the output miters.
    /// Off = plain per-output miter SAT (reference mode for testing).
    bool fraig = true;
};

/// Observability counters filled by the SAT engine (zeros for a BDD or
/// exhaustive proof).
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

/// Exact equivalence by building both networks' output BDDs in one
/// manager, with no node guard. Practical only for narrow circuits on
/// these benchmark classes (the multiplier BDD is exponential);
/// inequivalence comes with a counterexample pattern extracted from the
/// difference BDD. check_equivalent runs the same engine under a guard.
[[nodiscard]] EquivalenceResult bdd_equivalent(const Network& a, const Network& b);

/// SAT miter equivalence proof (exact at any input count). Networks are
/// matched positionally on inputs and outputs. Counters add to `stats`.
[[nodiscard]] EquivalenceResult sat_equivalent(const Network& a, const Network& b,
                                               const CecParams& params = {},
                                               CecStats* stats = nullptr);

/// The equivalence sign-off of every flow. The input count alone picks
/// the engine:
///  - n <= 12: exhaustive simulation of all 2^n patterns (kExhaustive);
///  - 12 < n <= 20: 64 rounds of random simulation refute first, then a
///    global BDD capped at 2^13 allocated nodes proves (kBdd); a cap trip
///    sends the check to exhaustive simulation (kExhaustive);
///  - n > 20: the random pre-pass, then the SAT miter sweep (kSat).
/// Callers that want one engine call bdd_equivalent/sat_equivalent.
[[nodiscard]] EquivalenceResult check_equivalent(const Network& a, const Network& b,
                                                 const CecParams& params = {},
                                                 CecStats* stats = nullptr);

/// Shared by all engines: turn a witness pattern into a refutation
/// verdict, re-verifying it by single-pattern simulation of both networks
/// first (throws std::logic_error if the engine's witness does not
/// actually distinguish them — a checker bug, never a user error).
[[nodiscard]] EquivalenceResult verified_counterexample(
    const Network& a, const Network& b, int output_index,
    std::vector<bool> pattern, const char* origin, EquivEngine engine);

}  // namespace bdsmaj::net
