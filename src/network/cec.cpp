#include "network/cec.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "sat/cnf.hpp"

namespace bdsmaj::net {

namespace {

/// Seed of the refutation simulation; the fraiging signatures use a
/// derived stream.
constexpr std::uint64_t kSimSeed = 0x5eed;
/// Signature rounds used to build candidate-equivalence classes for the
/// SAT engine (64 patterns each; counterexample patterns from failed
/// candidate proofs are appended as extra rounds).
constexpr int kSignatureRounds = 4;
/// Conflict budget per internal candidate query; exhausted candidates are
/// skipped (never unsound).
constexpr std::int64_t kInternalConflictLimit = 2000;
/// Conflict budget per output miter: unbounded, because output proofs are
/// the actual sign-off and must not silently give up.
constexpr std::int64_t kOutputConflictLimit = 0;
/// check_equivalent proves with a global BDD when the input count is at
/// most this, and with the SAT miter sweep above it.
constexpr std::size_t kBddInputLimit = 20;

EquivalenceResult structural_mismatch(std::string reason, EquivEngine engine) {
    EquivalenceResult r;
    r.equivalent = false;
    r.exact = true;
    r.engine = engine;
    r.reason = std::move(reason);
    return r;
}

/// Topological level of every node (inputs/constants = 0). Candidate
/// queries run in merged level order so a node's proof can lean on
/// cut-points already forced in its transitive fanin.
std::vector<int> node_levels(const Network& network, const std::vector<NodeId>& order) {
    std::vector<int> level(network.node_count(), 0);
    for (const NodeId id : order) {
        const Node& n = network.node(id);
        int l = 0;
        for (const NodeId f : n.fanins) l = std::max(l, level[f] + 1);
        level[id] = l;
    }
    return level;
}

std::uint64_t hash_words(const std::vector<std::uint64_t>& words) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const std::uint64_t w : words) {
        h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
}

/// The fraiging state for one sat_equivalent() call.
struct Fraig {
    const Network& a;
    const Network& b;
    CecStats& stats;

    sat::Solver solver;
    sat::TseitinEncoder enc{solver};
    std::vector<sat::Lit> pi_lits;
    std::vector<sat::Lit> lits_a, lits_b;  ///< per-node literal (kUndefLit = unreachable)

    std::vector<NodeId> order_a, order_b;
    /// Merged candidate schedule: (level, network flag, node id).
    struct Slot {
        int level;
        bool in_b;
        NodeId id;
    };
    std::vector<Slot> schedule;

    /// Base random stimulus, regenerated identically each pass:
    /// base_stim[round][pi]. Counterexample patterns from refuted
    /// candidates accumulate in `extra_patterns` and are packed into
    /// additional 64-pattern rounds.
    std::vector<std::vector<std::uint64_t>> base_stim;
    std::vector<std::vector<bool>> extra_patterns;

    /// Per-pass signatures: sig(node) = one word per simulated round.
    std::vector<std::vector<std::uint64_t>> sig_a, sig_b;

    explicit Fraig(const Network& a_in, const Network& b_in, CecStats& s)
        : a(a_in), b(b_in), stats(s) {
        out_a_ = enc.encode(a, pi_lits, &lits_a);
        out_b_ = enc.encode(b, pi_lits, &lits_b);

        order_a = a.topo_order();
        order_b = b.topo_order();
        const std::vector<int> level_a = node_levels(a, order_a);
        const std::vector<int> level_b = node_levels(b, order_b);
        for (const NodeId id : order_a) {
            if (a.node(id).kind == GateKind::kInput) continue;
            if (lits_a[id] == sat::kUndefLit) continue;
            schedule.push_back({level_a[id], false, id});
        }
        for (const NodeId id : order_b) {
            if (b.node(id).kind == GateKind::kInput) continue;
            if (lits_b[id] == sat::kUndefLit) continue;
            schedule.push_back({level_b[id], true, id});
        }
        std::stable_sort(schedule.begin(), schedule.end(),
                         [](const Slot& x, const Slot& y) { return x.level < y.level; });

        std::mt19937_64 rng(kSimSeed ^ 0xf7a19ULL);
        base_stim.resize(kSignatureRounds);
        for (auto& round : base_stim) {
            round.resize(a.inputs().size());
            for (auto& w : round) w = rng();
        }
    }

    [[nodiscard]] const std::vector<sat::Lit>& outputs_a() const { return out_a_; }
    [[nodiscard]] const std::vector<sat::Lit>& outputs_b() const { return out_b_; }

    /// Recompute every node's signature over the base rounds plus the
    /// accumulated counterexample patterns.
    void resimulate() {
        std::vector<std::vector<std::uint64_t>> stim = base_stim;
        for (std::size_t at = 0; at < extra_patterns.size(); at += 64) {
            std::vector<std::uint64_t> round(a.inputs().size(), 0);
            for (std::size_t k = 0; k < 64 && at + k < extra_patterns.size(); ++k) {
                const std::vector<bool>& pat = extra_patterns[at + k];
                for (std::size_t i = 0; i < pat.size(); ++i) {
                    if (pat[i]) round[i] |= std::uint64_t{1} << k;
                }
            }
            stim.push_back(std::move(round));
        }
        stats.sim_rounds += stim.size();

        sig_a.assign(a.node_count(), {});
        sig_b.assign(b.node_count(), {});
        std::vector<std::uint64_t> value, fanin_words;
        for (const std::vector<std::uint64_t>& round : stim) {
            simulate_words_into(a, order_a, round, value, fanin_words);
            for (std::size_t id = 0; id < a.node_count(); ++id) sig_a[id].push_back(value[id]);
            simulate_words_into(b, order_b, round, value, fanin_words);
            for (std::size_t id = 0; id < b.node_count(); ++id) sig_b[id].push_back(value[id]);
        }
    }

    /// Extract the primary-input pattern of the current SAT model.
    [[nodiscard]] std::vector<bool> model_pattern() const {
        std::vector<bool> pattern(pi_lits.size());
        for (std::size_t i = 0; i < pi_lits.size(); ++i) {
            pattern[i] = solver.model_true(pi_lits[i]);
        }
        return pattern;
    }

    /// One fraiging pass: bucket nodes by canonical signature and try to
    /// prove each candidate equal to an earlier member of its bucket.
    /// Returns the number of candidates refuted (their counterexamples are
    /// now in extra_patterns, so the next pass separates them).
    int fraig_pass() {
        struct Entry {
            std::uint64_t hash;
            const std::vector<std::uint64_t>* sig;  ///< canonical = sig ^ flip
            bool flip;
            sat::Lit lit;  ///< canonical literal (already polarity-adjusted)
        };
        std::unordered_map<std::uint64_t, std::vector<Entry>> buckets;
        buckets.reserve(schedule.size());

        // Seed with the constant-false function so constant nodes (and
        // nodes the stimulus proves constant) collapse onto the shared
        // constant literal.
        const std::size_t rounds = sig_a.empty() ? sig_b[0].size() : sig_a[0].size();
        const std::vector<std::uint64_t> zero_sig(rounds, 0);
        const std::uint64_t zero_hash = hash_words(zero_sig);
        buckets[zero_hash].push_back(Entry{zero_hash, &zero_sig, false, enc.constant(false)});

        const auto canonical_equal = [](const Entry& e, const std::vector<std::uint64_t>& s,
                                        bool flip) {
            for (std::size_t r = 0; r < s.size(); ++r) {
                const std::uint64_t lhs = flip ? ~s[r] : s[r];
                const std::uint64_t rhs = e.flip ? ~(*e.sig)[r] : (*e.sig)[r];
                if (lhs != rhs) return false;
            }
            return true;
        };

        int refuted = 0;
        std::vector<std::uint64_t> canon;  // scratch for hashing
        for (const Slot& slot : schedule) {
            const std::vector<std::uint64_t>& sig = slot.in_b ? sig_b[slot.id] : sig_a[slot.id];
            const sat::Lit raw = slot.in_b ? lits_b[slot.id] : lits_a[slot.id];
            const bool flip = (sig[0] & 1) != 0;
            const sat::Lit lit = raw ^ flip;
            canon.resize(sig.size());
            for (std::size_t r = 0; r < sig.size(); ++r) canon[r] = flip ? ~sig[r] : sig[r];
            const std::uint64_t h = hash_words(canon);

            std::vector<Entry>& bucket = buckets[h];
            bool merged = false;
            for (const Entry& e : bucket) {
                if (!canonical_equal(e, sig, flip)) continue;
                if (e.lit == lit) {
                    merged = true;  // structurally the same literal already
                    break;
                }
                ++stats.candidate_pairs;
                // Prove lit == e.lit: t <-> lit XOR e.lit, then ask for t.
                const sat::Lit t = enc.encode_xor(lit, e.lit);
                ++stats.sat_calls;
                const sat::SolveResult res =
                    solver.solve({t}, kInternalConflictLimit);
                if (res == sat::SolveResult::kUnsat) {
                    (void)solver.add_clause(~t);  // cut-point: equality now forced
                    ++stats.proved_internal;
                    merged = true;
                    break;
                }
                if (res == sat::SolveResult::kSat) {
                    extra_patterns.push_back(model_pattern());
                    ++stats.refuted_internal;
                    ++refuted;
                } else {
                    ++stats.unknown_internal;
                }
                break;  // one attempt per pass; signatures re-separate refuted pairs
            }
            if (!merged) {
                bucket.push_back(Entry{h, &sig, flip, lit});
            }
        }
        return refuted;
    }

private:
    std::vector<sat::Lit> out_a_, out_b_;
};

}  // namespace

EquivalenceResult sat_equivalent(const Network& a, const Network& b,
                                 const CecParams& params, CecStats* stats) {
    if (a.inputs().size() != b.inputs().size()) {
        return structural_mismatch("input counts differ", EquivEngine::kSat);
    }
    if (a.outputs().size() != b.outputs().size()) {
        return structural_mismatch("output counts differ", EquivEngine::kSat);
    }
    CecStats local_stats;
    CecStats& st = stats != nullptr ? *stats : local_stats;

    Fraig fraig(a, b, st);
    if (params.fraig) {
        // Learn internal cut-points until a pass stops refuting candidates
        // (each refutation adds a distinguishing pattern, so passes strictly
        // shrink the candidate classes; the cap is a safety net only).
        constexpr int kMaxPasses = 8;
        for (int pass = 0; pass < kMaxPasses; ++pass) {
            fraig.resimulate();
            if (fraig.fraig_pass() == 0) break;
        }
    }

    // Per-output miters: each output pair must be UNSAT-different.
    for (std::size_t o = 0; o < fraig.outputs_a().size(); ++o) {
        const sat::Lit m =
            fraig.enc.encode_xor(fraig.outputs_a()[o], fraig.outputs_b()[o]);
        ++st.sat_calls;
        const sat::SolveResult res =
            fraig.solver.solve({m}, kOutputConflictLimit);
        if (res == sat::SolveResult::kSat) {
            st.conflicts += fraig.solver.stats().conflicts;
            return verified_counterexample(a, b, static_cast<int>(o),
                                           fraig.model_pattern(), "SAT",
                                           EquivEngine::kSat);
        }
        if (res == sat::SolveResult::kUnknown) {
            throw std::runtime_error(
                "sat_equivalent: output miter came back unknown; sign-off "
                "must not be silently incomplete");
        }
        (void)fraig.solver.add_clause(~m);  // outputs proven equal: keep as unit
    }
    st.conflicts += fraig.solver.stats().conflicts;

    EquivalenceResult r;
    r.equivalent = true;
    r.exact = true;
    r.engine = EquivEngine::kSat;
    return r;
}

EquivalenceResult check_equivalent(const Network& a, const Network& b,
                                   const CecParams& params, CecStats* stats) {
    // Fast refutation first: bit-parallel random simulation catches the
    // overwhelming majority of real bugs before any proof machinery runs.
    const int rounds = std::max(1, params.sim_rounds);
    EquivalenceResult sim = random_equivalent(a, b, rounds, kSimSeed);
    if (!sim.equivalent) return sim;  // exact: structural or re-verified cex
    if (a.inputs().size() <= kBddInputLimit) return bdd_equivalent(a, b);
    return sat_equivalent(a, b, params, stats);
}

}  // namespace bdsmaj::net
