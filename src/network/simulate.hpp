#pragma once
// Network simulation and equivalence checking.
//
// Three complementary engines:
//   * 64-way bit-parallel random simulation (fast falsification on any size)
//   * exact equivalence through shared-manager BDD construction (tiny
//     input counts only — the global BDD of a multiplier is intrinsically
//     exponential)
//   * the simulation-guided SAT oracle (network/cec.hpp): CNF miters over
//     an in-repo CDCL solver, exact at any input count — the default
//     sign-off used by every flow, test, and bench in this repo.

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "network/network.hpp"

namespace bdsmaj::net {

/// Build the BDD of an SOP node over fanin functions supplied by
/// `fanin(i)`. The cube terms are combined by balanced pairwise OR
/// reduction: a sequential accumulator repeats work proportional to the
/// growing intermediate BDD once per cube, pairwise reduction keeps the
/// operands small. Shared by the equivalence checker and the supernode
/// BDD builder.
template <typename FaninFn>
[[nodiscard]] bdd::Bdd sop_to_bdd(bdd::Manager& mgr, const Sop& sop,
                                  FaninFn&& fanin) {
    std::vector<bdd::Bdd> terms;
    terms.reserve(sop.cubes().size());
    for (const Cube& cube : sop.cubes()) {
        bdd::Bdd term = mgr.one();
        for (std::size_t i = 0; i < cube.lits.size(); ++i) {
            if (cube.lits[i] == Lit::kDash) continue;
            const bdd::Bdd& fi = fanin(i);
            term = mgr.apply_and(term, cube.lits[i] == Lit::kPos ? fi : !fi);
        }
        terms.push_back(std::move(term));
    }
    while (terms.size() > 1) {
        std::vector<bdd::Bdd> next;
        next.reserve(terms.size() / 2 + 1);
        for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
            next.push_back(mgr.apply_or(terms[i], terms[i + 1]));
        }
        if (terms.size() % 2 == 1) next.push_back(std::move(terms.back()));
        terms = std::move(next);
    }
    return terms.empty() ? mgr.zero() : std::move(terms[0]);
}

/// One node's 64-pattern word from its fanins' words (`in(k)` is fanin k's
/// word); `fanin_words` is SOP-evaluation scratch. A primary input has no
/// gate function: callers supply its word, and this returns 0 for it.
template <typename FaninWord>
[[nodiscard]] std::uint64_t eval_node_word(const Node& n, FaninWord&& in,
                                           std::vector<std::uint64_t>& fanin_words) {
    switch (n.kind) {
        case GateKind::kInput: return 0;
        case GateKind::kConst0: return 0;
        case GateKind::kConst1: return ~std::uint64_t{0};
        case GateKind::kBuf: return in(0);
        case GateKind::kNot: return ~in(0);
        case GateKind::kAnd: return in(0) & in(1);
        case GateKind::kOr: return in(0) | in(1);
        case GateKind::kNand: return ~(in(0) & in(1));
        case GateKind::kNor: return ~(in(0) | in(1));
        case GateKind::kXor: return in(0) ^ in(1);
        case GateKind::kXnor: return ~(in(0) ^ in(1));
        case GateKind::kMaj:
            return (in(0) & in(1)) | (in(1) & in(2)) | (in(0) & in(2));
        case GateKind::kMux: return (in(0) & in(1)) | (~in(0) & in(2));
        case GateKind::kSop:
            fanin_words.clear();
            for (std::size_t k = 0; k < n.fanins.size(); ++k) fanin_words.push_back(in(k));
            return n.sop.eval_words(fanin_words);
    }
    return 0;
}

/// One 64-pattern simulation: `pi_words[i]` is the stimulus of input i
/// (bit k = pattern k); returns one word per output port.
[[nodiscard]] std::vector<std::uint64_t> simulate_words(
    const Network& network, const std::vector<std::uint64_t>& pi_words);

/// Simulation core over a precomputed topological order, writing every
/// node's 64-pattern word into a caller-owned buffer (indexed by NodeId).
/// Multi-round callers — the random equivalence check and the SAT
/// checker's signature rounds — hoist the order and the buffers out of
/// their loops. `fanin_words` is reusable SOP-evaluation scratch.
void simulate_words_into(const Network& network, const std::vector<NodeId>& order,
                         const std::vector<std::uint64_t>& pi_words,
                         std::vector<std::uint64_t>& value,
                         std::vector<std::uint64_t>& fanin_words);

/// Single-pattern convenience wrapper.
[[nodiscard]] std::vector<bool> simulate(const Network& network,
                                         const std::vector<bool>& pi_values);

/// Equivalence-checking engine. kAuto refutes by simulation first, then
/// proves with a BDD on tiny input counts and the SAT miter sweep
/// everywhere else; kSim alone never *proves* anything (exact stays
/// false on agreement).
enum class EquivEngine : std::uint8_t { kAuto, kBdd, kSat, kSim };

[[nodiscard]] const char* equiv_engine_name(EquivEngine engine);
/// Parse "auto" / "bdd" / "sat" / "sim"; throws std::invalid_argument.
[[nodiscard]] EquivEngine parse_equiv_engine(const std::string& name);

/// Result of an equivalence query.
struct EquivalenceResult {
    bool equivalent = false;
    /// True when the verdict is a proof: an exhaustive BDD/SAT argument,
    /// or a concrete re-simulated counterexample. False means the verdict
    /// is only sampled (random simulation agreed) — callers asserting
    /// sign-off must check this, not just `equivalent`.
    bool exact = false;
    /// Engine that produced the verdict (never kAuto).
    EquivEngine engine = EquivEngine::kSim;
    std::string reason;  // human-readable mismatch description
    /// On inequivalence with a known witness: the failing primary-input
    /// assignment (positionally indexed) and the differing output port.
    std::vector<bool> counterexample;
    int failing_output = -1;
};

/// Random simulation with `rounds` x 64 patterns. Inputs/outputs are
/// matched positionally; PI and PO counts must agree. A mismatch comes
/// with a re-verified counterexample pattern (exact refutation);
/// agreement is only sampled (exact = false).
[[nodiscard]] EquivalenceResult random_equivalent(const Network& a,
                                                  const Network& b, int rounds,
                                                  std::uint64_t seed);

/// Exact equivalence by building both networks' output BDDs in one manager.
/// Practical only for tiny input counts on these benchmark classes (the
/// multiplier BDD is exponential); inequivalence comes with a
/// counterexample pattern extracted from the difference BDD.
[[nodiscard]] EquivalenceResult bdd_equivalent(const Network& a, const Network& b);

/// Build the BDD of every output of `network` in `mgr`, using manager
/// variable i for primary input i. Exposed because flows construct global
/// BDDs for verification and for the DC-proxy collapse.
[[nodiscard]] std::vector<bdd::Bdd> network_to_bdds(const Network& network,
                                                    bdd::Manager& mgr);

/// Shared by all engines: turn a witness pattern into a refutation
/// verdict, re-verifying it by single-pattern simulation of both networks
/// first (throws std::logic_error if the engine's witness does not
/// actually distinguish them — a checker bug, never a user error).
[[nodiscard]] EquivalenceResult verified_counterexample(
    const Network& a, const Network& b, int output_index,
    std::vector<bool> pattern, const char* origin, EquivEngine engine);

/// Human-readable description of a failing pattern (used in `reason`).
[[nodiscard]] std::string describe_counterexample(const Network& a, int output_index,
                                                  const std::vector<bool>& pattern,
                                                  bool value_a, bool value_b);

}  // namespace bdsmaj::net
