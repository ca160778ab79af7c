#include "network/cec.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "network/simulate.hpp"
#include "sat/cnf.hpp"

namespace bdsmaj::net {

namespace {

/// Seed of the refutation simulation; the fraiging signatures use a
/// derived stream.
constexpr std::uint64_t kSimSeed = 0x5eed;
/// Rounds of check_equivalent's random refutation pre-pass (64 patterns
/// each).
constexpr int kRefutationRounds = 64;
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
/// check_equivalent proves by exhaustive simulation or a guarded global
/// BDD when the input count is at most this, and with the SAT miter sweep
/// above it.
constexpr std::size_t kBddInputLimit = 20;
/// Up to this many inputs check_equivalent skips the pre-pass and proves
/// by exhaustive simulation: 2^12 patterns are 64 words, no more than the
/// pre-pass's own kRefutationRounds.
constexpr std::size_t kExhaustiveInputLimit = 12;
/// Node cap of check_equivalent's global BDD (12 < n <= 20 inputs). It is
/// ManagerParams::max_live_nodes, which bounds every node allocated while
/// the output BDDs are built: live nodes plus dead ones not yet collected
/// (the manager collects only above 2^14 dead nodes, so none are here).
/// Narrow control logic is proven under it; XOR/MAJ-heavy datapath BDDs
/// trip it within milliseconds and go to exhaustive simulation instead.
constexpr std::size_t kBddNodeGuard = std::size_t{1} << 13;

/// The one I/O-shape check. Every engine matches inputs and outputs
/// positionally, so differing counts refute without any input pattern.
std::optional<EquivalenceResult> shape_mismatch(const Network& a, const Network& b,
                                                EquivEngine engine) {
    const char* reason = nullptr;
    if (a.inputs().size() != b.inputs().size()) {
        reason = "input counts differ";
    } else if (a.outputs().size() != b.outputs().size()) {
        reason = "output counts differ";
    } else {
        return std::nullopt;
    }
    EquivalenceResult r;
    r.engine = engine;
    r.reason = reason;
    return r;
}

/// Human-readable description of a failing pattern (the verdict's `reason`).
std::string describe_counterexample(const Network& a, int output_index,
                                    const std::vector<bool>& pattern,
                                    bool value_a, bool value_b) {
    std::ostringstream os;
    os << "output " << a.outputs()[static_cast<std::size_t>(output_index)].name
       << " (index " << output_index << ") differs: a=" << (value_a ? 1 : 0)
       << " b=" << (value_b ? 1 : 0) << " under";
    constexpr std::size_t kMaxListed = 48;
    for (std::size_t i = 0; i < pattern.size() && i < kMaxListed; ++i) {
        os << ' ' << a.node(a.inputs()[i]).name << '=' << (pattern[i] ? 1 : 0);
    }
    if (pattern.size() > kMaxListed) {
        os << " ... (" << pattern.size() - kMaxListed << " more)";
    }
    return os.str();
}

}  // namespace

const char* equiv_engine_name(EquivEngine engine) {
    switch (engine) {
        case EquivEngine::kAuto: return "auto";
        case EquivEngine::kBdd: return "bdd";
        case EquivEngine::kSat: return "sat";
        case EquivEngine::kSim: return "sim";
        case EquivEngine::kExhaustive: return "exhaustive";
    }
    return "?";
}

EquivalenceResult verified_counterexample(const Network& a, const Network& b,
                                          int output_index,
                                          std::vector<bool> pattern,
                                          const char* origin,
                                          EquivEngine engine) {
    // Sign the witness by single-pattern re-simulation of both networks:
    // whatever engine produced it, the verdict the caller sees is backed
    // by the reference simulator.
    const std::vector<bool> va = simulate(a, pattern);
    const std::vector<bool> vb = simulate(b, pattern);
    const std::size_t o = static_cast<std::size_t>(output_index);
    if (va[o] == vb[o]) {
        throw std::logic_error(std::string("equivalence checker bug: ") + origin +
                               " counterexample failed re-simulation");
    }
    EquivalenceResult r;
    r.equivalent = false;
    r.engine = engine;
    r.failing_output = output_index;
    r.reason = describe_counterexample(a, output_index, pattern, va[o], vb[o]);
    r.counterexample = std::move(pattern);
    return r;
}

namespace {

/// Word-parallel simulation of two same-shaped networks on shared
/// stimulus words. The topological orders and the value buffers are
/// hoisted out of the callers' word loops; outputs are compared in place.
class PairSimulator {
public:
    PairSimulator(const Network& a, const Network& b)
        : a_(a), b_(b), order_a_(a.topo_order()), order_b_(b.topo_order()) {}

    /// Simulate one word of 64 patterns (`stimulus[i]` drives input i).
    /// Returns the re-verified counterexample of the first differing
    /// output, read off the stimulus at the lowest differing bit, or
    /// nothing when every output agrees on all 64 patterns.
    std::optional<EquivalenceResult> refute(const std::vector<std::uint64_t>& stimulus,
                                            const char* origin, EquivEngine engine) {
        simulate_words_into(a_, order_a_, stimulus, value_a_, fanin_words_);
        simulate_words_into(b_, order_b_, stimulus, value_b_, fanin_words_);
        for (std::size_t o = 0; o < a_.outputs().size(); ++o) {
            const std::uint64_t diff = value_a_[a_.outputs()[o].driver] ^
                                       value_b_[b_.outputs()[o].driver];
            if (diff != 0) {
                const int bit = std::countr_zero(diff);
                std::vector<bool> pattern(stimulus.size());
                for (std::size_t i = 0; i < stimulus.size(); ++i) {
                    pattern[i] = ((stimulus[i] >> bit) & 1) != 0;
                }
                return verified_counterexample(a_, b_, static_cast<int>(o),
                                               std::move(pattern), origin, engine);
            }
        }
        return std::nullopt;
    }

private:
    const Network& a_;
    const Network& b_;
    const std::vector<NodeId> order_a_, order_b_;
    std::vector<std::uint64_t> value_a_, value_b_, fanin_words_;
};

/// check_equivalent's refutation pre-pass: kRefutationRounds x 64 random
/// patterns over same-shaped networks. Returns the re-verified
/// counterexample of the first differing output, or nothing: agreement on
/// samples proves nothing, so it issues no "equivalent" verdict.
std::optional<EquivalenceResult> random_refutation(const Network& a, const Network& b) {
    std::mt19937_64 rng(kSimSeed);
    std::vector<std::uint64_t> stimulus(a.inputs().size());
    PairSimulator sim(a, b);
    for (int round = 0; round < kRefutationRounds; ++round) {
        for (auto& w : stimulus) w = rng();
        if (auto refuted = sim.refute(stimulus, "simulation", EquivEngine::kSim)) {
            return refuted;
        }
    }
    return std::nullopt;
}

/// The exhaustive engine: all 2^n patterns of same-shaped networks with
/// n <= kBddInputLimit inputs, 64 to a word. Inputs 0-5 take the six
/// variable words (bit k of input i's word is bit i of k); input i >= 6 is
/// all-ones or zero by bit i - 6 of the chunk index, so a mismatch's
/// pattern, read off the stimulus at its bit, is the one that chunk and
/// bit index name. Below 6 inputs the one word repeats the 2^n patterns.
/// Exact both ways: agreement on every pattern is a proof, and a mismatch
/// is a re-verified counterexample.
EquivalenceResult exhaustive_equivalent(const Network& a, const Network& b) {
    static constexpr std::uint64_t kVarWords[6] = {
        0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
        0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL};
    const std::size_t n = a.inputs().size();
    std::vector<std::uint64_t> stimulus(n);
    for (std::size_t i = 0; i < n && i < 6; ++i) stimulus[i] = kVarWords[i];
    const std::uint64_t chunks = n > 6 ? std::uint64_t{1} << (n - 6) : 1;
    PairSimulator sim(a, b);
    for (std::uint64_t chunk = 0; chunk < chunks; ++chunk) {
        for (std::size_t i = 6; i < n; ++i) {
            stimulus[i] = ((chunk >> (i - 6)) & 1) != 0 ? ~std::uint64_t{0} : 0;
        }
        if (auto refuted = sim.refute(stimulus, "exhaustive simulation",
                                      EquivEngine::kExhaustive)) {
            return *refuted;
        }
    }
    EquivalenceResult r;
    r.equivalent = true;
    r.engine = EquivEngine::kExhaustive;
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
    std::size_t sig_rounds = 0;  ///< rounds in every signature of this pass

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
        sig_rounds = stim.size();
        stats.sim_rounds += sig_rounds;

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
        const std::vector<std::uint64_t> zero_sig(sig_rounds, 0);
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

/// The BDD engine on same-shaped networks: both networks' output BDDs in
/// one manager built with `params`. A node cap there throws
/// bdd::ResourceExhausted, and the poisoned manager dies with this frame.
/// Inequivalence comes with a counterexample walked out of the difference
/// BDD.
EquivalenceResult guarded_bdd_equivalent(const Network& a, const Network& b,
                                         const bdd::ManagerParams& params) {
    bdd::Manager mgr(static_cast<int>(a.inputs().size()), params);
    const std::vector<bdd::Bdd> fa = network_to_bdds(a, mgr);
    const std::vector<bdd::Bdd> fb = network_to_bdds(b, mgr);
    for (std::size_t o = 0; o < fa.size(); ++o) {
        if (!(fa[o] == fb[o])) {
            // Walk the difference function down to a satisfying minterm:
            // at each variable take any cofactor that stays satisfiable.
            bdd::Bdd diff = mgr.apply_xor(fa[o], fb[o]);
            std::vector<bool> pattern(a.inputs().size(), false);
            for (int v = 0; v < static_cast<int>(a.inputs().size()); ++v) {
                const bdd::Bdd lo = mgr.cofactor(diff, v, false);
                if (!(lo == mgr.zero())) {
                    pattern[static_cast<std::size_t>(v)] = false;
                    diff = lo;
                } else {
                    pattern[static_cast<std::size_t>(v)] = true;
                    diff = mgr.cofactor(diff, v, true);
                }
            }
            return verified_counterexample(a, b, static_cast<int>(o),
                                           std::move(pattern), "BDD",
                                           EquivEngine::kBdd);
        }
    }
    EquivalenceResult r;
    r.equivalent = true;
    r.engine = EquivEngine::kBdd;
    return r;
}

}  // namespace

EquivalenceResult bdd_equivalent(const Network& a, const Network& b) {
    if (auto mismatch = shape_mismatch(a, b, EquivEngine::kBdd)) return *mismatch;
    return guarded_bdd_equivalent(a, b, {});
}

EquivalenceResult sat_equivalent(const Network& a, const Network& b,
                                 const CecParams& params, CecStats* stats) {
    if (auto mismatch = shape_mismatch(a, b, EquivEngine::kSat)) return *mismatch;
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
    r.engine = EquivEngine::kSat;
    return r;
}

EquivalenceResult check_equivalent(const Network& a, const Network& b,
                                   const CecParams& params, CecStats* stats) {
    // The I/O-shape check and the refutation pre-pass tag their verdicts
    // kSim. Bit-parallel random simulation catches the overwhelming
    // majority of real bugs before any proof machinery runs; up to
    // kExhaustiveInputLimit inputs the exhaustive proof is no more work.
    if (auto mismatch = shape_mismatch(a, b, EquivEngine::kSim)) return *mismatch;
    const std::size_t inputs = a.inputs().size();
    if (inputs <= kExhaustiveInputLimit) return exhaustive_equivalent(a, b);
    if (auto refuted = random_refutation(a, b)) return *refuted;
    if (inputs > kBddInputLimit) return sat_equivalent(a, b, params, stats);
    bdd::ManagerParams guarded;
    guarded.max_live_nodes = kBddNodeGuard;
    try {
        return guarded_bdd_equivalent(a, b, guarded);
    } catch (const bdd::ResourceExhausted&) {
        return exhaustive_equivalent(a, b);
    }
}

}  // namespace bdsmaj::net
