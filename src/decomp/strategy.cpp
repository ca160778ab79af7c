#include "decomp/strategy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "decomp/engine.hpp"
#include "decomp/maj_decomp.hpp"
#include "decomp/xor_decomp.hpp"

namespace bdsmaj::decomp {

namespace {

using bdd::Bdd;

// ---------------------------------------------------------------------------
// Strategies. Each is stateless between steps; all per-step inputs arrive
// through the StepContext, so one instance is safe to reuse across an
// entire supernode recursion (and strategies hold no manager state).
// ---------------------------------------------------------------------------

/// Paper stage 1: majority decomposition on top of the dominator search,
/// accepted only when globally advantageous (k_global). Attempt/rejection
/// counters live here — they describe the search, not an accepted step.
class MajorityStrategy final : public DecompStrategy {
public:
    [[nodiscard]] StrategyKind kind() const noexcept override {
        return StrategyKind::kMajority;
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "majority";
    }
    [[nodiscard]] std::optional<Candidate> propose(StepContext& ctx) override {
        const std::optional<MajDecomposition> md =
            maj_decompose(ctx.mgr, ctx.f, ctx.analysis, ctx.params.maj);
        if (!md) return std::nullopt;
        ++ctx.stats.maj_attempts;
        if (!maj_globally_advantageous(ctx.mgr, ctx.f, *md,
                                       ctx.params.maj.k_global)) {
            ++ctx.stats.maj_rejected;
            return std::nullopt;
        }
        Candidate cand;
        cand.source = StrategyKind::kMajority;
        cand.op = Candidate::Op::kMaj;
        cand.a = md->fa;
        cand.b = md->fb;
        cand.c = md->fc;
        return cand;
    }
};

/// Paper stage 2: simple dominators (1-, 0-, x-) -> disjoint AND/OR/XOR.
/// Shortlist by divisor balance (|Fv| close to |F|/2), then score the
/// shortlist exactly by max(|quotient|, |divisor|).
class SimpleDominatorStrategy final : public DecompStrategy {
public:
    /// Simple-dominator candidates scored for balance (top-k shortlist).
    static constexpr std::size_t kMaxSimpleCandidates = 4;

    [[nodiscard]] StrategyKind kind() const noexcept override {
        return StrategyKind::kSimpleDominator;
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "simple-dominator";
    }
    [[nodiscard]] std::optional<Candidate> propose(StepContext& ctx) override {
        if (!ctx.analysis.has_simple_dominator()) return std::nullopt;
        struct Entry {
            const NodeDomInfo* info;
            SimpleDecomposition::Op op;
            std::size_t divisor_size;
        };
        const std::vector<std::size_t>& sizes = ctx.analysis.node_sizes();
        const std::vector<NodeDomInfo>& infos = ctx.analysis.nodes();
        std::vector<Entry> shortlist;
        for (std::size_t i = 0; i < infos.size(); ++i) {
            const NodeDomInfo& info = infos[i];
            if (info.is_one_dominator) {
                shortlist.push_back({&info, SimpleDecomposition::Op::kAnd, sizes[i]});
            } else if (info.is_zero_dominator) {
                shortlist.push_back({&info, SimpleDecomposition::Op::kOr, sizes[i]});
            } else if (info.is_x_dominator) {
                shortlist.push_back({&info, SimpleDecomposition::Op::kXor, sizes[i]});
            }
        }
        const std::size_t f_size = ctx.f_size;
        const auto balance = [f_size](std::size_t part) {
            const auto half = static_cast<double>(f_size) / 2.0;
            return std::abs(static_cast<double>(part) - half);
        };
        std::stable_sort(shortlist.begin(), shortlist.end(),
                         [&](const Entry& a, const Entry& b) {
                             return balance(a.divisor_size) < balance(b.divisor_size);
                         });
        if (shortlist.size() > kMaxSimpleCandidates) {
            shortlist.resize(kMaxSimpleCandidates);
        }
        std::optional<SimpleDecomposition> best;
        std::size_t best_score = 0;
        for (const Entry& e : shortlist) {
            SimpleDecomposition d = ctx.analysis.decompose_at(*e.info, e.op);
            const std::size_t score =
                std::max(ctx.mgr.dag_size(d.quotient), ctx.mgr.dag_size(d.divisor));
            if (!best || score < best_score) {
                best_score = score;
                best = std::move(d);
            }
        }
        if (!best) return std::nullopt;
        Candidate cand;
        cand.source = StrategyKind::kSimpleDominator;
        switch (best->op) {
            case SimpleDecomposition::Op::kAnd: cand.op = Candidate::Op::kAnd; break;
            case SimpleDecomposition::Op::kOr: cand.op = Candidate::Op::kOr; break;
            case SimpleDecomposition::Op::kXor: cand.op = Candidate::Op::kXor; break;
        }
        cand.a = std::move(best->quotient);
        cand.b = std::move(best->divisor);
        return cand;
    }
};

/// Paper stage 3: generalized (non-disjoint) XOR split, accepted only when
/// both parts shrink below kXorAcceptanceFactor * |F|.
class GeneralizedXorStrategy final : public DecompStrategy {
public:
    /// Accept a generalized XOR split only if both parts are smaller than
    /// the function by this factor.
    static constexpr double kXorAcceptanceFactor = 1.0;

    [[nodiscard]] StrategyKind kind() const noexcept override {
        return StrategyKind::kGeneralizedXor;
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "generalized-xor";
    }
    [[nodiscard]] std::optional<Candidate> propose(StepContext& ctx) override {
        const XorSplit split = xor_decompose(ctx.mgr, ctx.f);
        if (split.trivial) return std::nullopt;
        const auto limit = static_cast<double>(ctx.f_size) * kXorAcceptanceFactor;
        if (static_cast<double>(ctx.mgr.dag_size(split.m)) >= limit ||
            static_cast<double>(ctx.mgr.dag_size(split.k)) >= limit) {
            return std::nullopt;
        }
        Candidate cand;
        cand.source = StrategyKind::kGeneralizedXor;
        cand.op = Candidate::Op::kXor;
        cand.a = split.m;
        cand.b = split.k;
        return cand;
    }
};

/// Paper stage 4: Shannon cofactoring on the top variable. Always
/// proposes, so any pipeline ending here terminates.
class ShannonMuxStrategy final : public DecompStrategy {
public:
    [[nodiscard]] StrategyKind kind() const noexcept override {
        return StrategyKind::kShannonMux;
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "shannon-mux";
    }
    [[nodiscard]] std::optional<Candidate> propose(StepContext& ctx) override {
        const bdd::Edge e = ctx.f.edge();
        Candidate cand;
        cand.source = StrategyKind::kShannonMux;
        cand.op = Candidate::Op::kMux;
        cand.mux_var = ctx.mgr.edge_top_var(e);
        cand.a = ctx.mgr.from_edge(ctx.mgr.edge_then(e));
        cand.b = ctx.mgr.from_edge(ctx.mgr.edge_else(e));
        return cand;
    }
};

/// Totally symmetric cones -> ones-counting MAJ network. A function
/// symmetric in every support variable is fixed by all transpositions of
/// adjacent support variables, and those generate the full symmetric
/// group, so k-1 cofactor-pair checks
///
///   f|v_i=0,v_{i+1}=1  ==  f|v_i=1,v_{i+1}=0
///
/// certify total symmetry exactly (canonical BDDs: equality of edges is
/// equality of functions). The value vector values[w] = f(any input of
/// ones-count w) then determines f completely, and the ones-counting
/// construction (decomp/symmetric.hpp) emits it in O(k) gates. Both the
/// census and the value extraction are polynomial in the BDD size — no
/// truth table is ever materialized, so wide supports stay cheap.
class SymmetricStrategy final : public DecompStrategy {
public:
    /// Support cap: cones with more support variables than this skip the
    /// symmetry census entirely.
    static constexpr int kMaxSupport = 12;
    /// Profitability margin: serve the ones-counting network only when its
    /// gate count is below |dag(f)| + this margin. At 0 the gate is
    /// self-tuning — small symmetric cones (MAJ-3, voter-5) have compact
    /// ladder yields and are rejected; wide ones are where the O(k)
    /// counter beats the ~O(k^2) ladder.
    static constexpr int kMinSaving = 0;

    [[nodiscard]] StrategyKind kind() const noexcept override {
        return StrategyKind::kSymmetric;
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "symmetric";
    }
    [[nodiscard]] std::optional<Candidate> propose(StepContext& ctx) override {
        const std::vector<int> support = ctx.mgr.support_vars(ctx.f);
        const auto k = static_cast<int>(support.size());
        if (k < 3 || k > kMaxSupport) return std::nullopt;
        // Quick size filter: a totally symmetric function on k variables
        // has at most k(k+1)/2 + 1 reduced-BDD nodes (w+1 distinct
        // subfunctions at support level w). Anything bigger cannot pass
        // the census, so the k-1 cofactor checks are skipped outright.
        if (ctx.f_size > static_cast<std::size_t>(k * (k + 1) / 2 + 1)) {
            return std::nullopt;
        }
        ++ctx.stats.sym_cone_checks;
        for (int i = 0; i + 1 < k; ++i) {
            const Bdd f01 =
                ctx.mgr.cofactor(ctx.mgr.cofactor(ctx.f, support[static_cast<std::size_t>(i)], false),
                                 support[static_cast<std::size_t>(i) + 1], true);
            const Bdd f10 =
                ctx.mgr.cofactor(ctx.mgr.cofactor(ctx.f, support[static_cast<std::size_t>(i)], true),
                                 support[static_cast<std::size_t>(i) + 1], false);
            if (!(f01 == f10)) return std::nullopt;
        }
        ++ctx.stats.sym_cone_total;
        SymmetricValues values(static_cast<std::size_t>(k) + 1);
        std::vector<bool> assignment(static_cast<std::size_t>(ctx.mgr.num_vars()), false);
        for (int w = 0; w <= k; ++w) {
            // Symmetry makes the choice of which w support vars are true
            // irrelevant; use the first w.
            if (w > 0) assignment[static_cast<std::size_t>(support[static_cast<std::size_t>(w) - 1])] = true;
            values[static_cast<std::size_t>(w)] =
                ctx.mgr.eval(ctx.f, assignment) ? 1 : 0;
        }
        // Profitability: the ladder yields ~1 gate per BDD node, so demand
        // the counter network beat f_size by kMinSaving.
        const int limit = static_cast<int>(ctx.f_size) + kMinSaving;
        if (symmetric_network_cost(values) >= limit) return std::nullopt;
        Candidate cand;
        cand.source = StrategyKind::kSymmetric;
        cand.op = Candidate::Op::kSymmetric;
        cand.sym_vars = support;
        cand.sym_values = std::move(values);
        return cand;
    }
};

/// Exact cone strategy: when the support fits in exact_max_support (<= 4)
/// variables, serve the minimal compiled {MAJ,AND,OR,XOR,MUX,NOT} structure
/// for the cone's NPN class. The DAG-size pre-filter keeps the reject path
/// O(1): a reduced BDD over 4 variables never exceeds a handful of nodes.
class ExactSmallConeStrategy final : public DecompStrategy {
public:
    /// Largest reduced-BDD node count of any function on <= 4 variables
    /// (3 + 2 + 4 + 2 per level, generously rounded up).
    static constexpr std::size_t kMaxSmallConeNodes = 16;
    /// Profitability margin: serve a table structure only when its gate
    /// count is below |dag(f)| + this margin (more negative = more
    /// conservative, preserving the ladder's cross-cone sharing). -1 is the
    /// measured sweet spot on the MCNC suite.
    static constexpr int kMinSaving = -1;

    [[nodiscard]] StrategyKind kind() const noexcept override {
        return StrategyKind::kExactSmallCone;
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "exact-small-cone";
    }
    [[nodiscard]] std::optional<Candidate> propose(StepContext& ctx) override {
        if (ctx.f_size > kMaxSmallConeNodes) return std::nullopt;
        const int max_support = std::min(ctx.params.exact_max_support, kMaxExactSupport);
        std::optional<ConeMatch> match = match_cone(ctx.mgr, ctx.f, max_support);
        if (!match) return std::nullopt;
        Candidate cand;
        cand.structure = &exact_structure(match->canonical);
        // Profitability gate: an exact structure is a sharing-opaque block
        // (its gates only unify with structurally identical ones), while
        // the ladder's recursion memoizes shared sub-BDDs across the whole
        // supernode. Serving the cone is only a win when the program is
        // strictly smaller than the ladder's ~1-gate-per-BDD-node yield.
        const int gate_limit = static_cast<int>(ctx.f_size) + kMinSaving;
        if (cand.structure->gate_count() >= gate_limit) return std::nullopt;
        cand.source = StrategyKind::kExactSmallCone;
        cand.op = Candidate::Op::kExact;
        cand.match = *match;
        return cand;
    }
};

/// An operand's recursion yield: a decomposed part of n BDD nodes lands
/// near n gates, and a literal costs nothing (it is a leaf wire).
double part_size(StepContext& ctx, const Bdd& part) {
    if (!part.valid() || part.is_constant()) return 0.0;
    const std::size_t n = ctx.mgr.dag_size(part);
    return n <= 1 ? 0.0 : static_cast<double>(n);
}

}  // namespace

std::unique_ptr<DecompStrategy> make_strategy(StrategyKind kind) {
    switch (kind) {
        case StrategyKind::kSymmetric:
            return std::make_unique<SymmetricStrategy>();
        case StrategyKind::kExactSmallCone:
            return std::make_unique<ExactSmallConeStrategy>();
        case StrategyKind::kMajority: return std::make_unique<MajorityStrategy>();
        case StrategyKind::kSimpleDominator:
            return std::make_unique<SimpleDominatorStrategy>();
        case StrategyKind::kGeneralizedXor:
            return std::make_unique<GeneralizedXorStrategy>();
        case StrategyKind::kShannonMux:
            return std::make_unique<ShannonMuxStrategy>();
    }
    throw std::invalid_argument("unknown StrategyKind");
}

double candidate_gate_cost(const Candidate& cand, StepContext& ctx) {
    int root_gates = 0;  // gates the root operator itself emits
    switch (cand.op) {
        case Candidate::Op::kExact:
            return cand.structure != nullptr ? cand.structure->gate_count() : 0.0;
        case Candidate::Op::kSymmetric:
            return symmetric_network_cost(cand.sym_values);
        case Candidate::Op::kAnd:
        case Candidate::Op::kOr:
        case Candidate::Op::kXor:
        case Candidate::Op::kMaj:
            root_gates = 1;
            break;
        case Candidate::Op::kMux:
            // The builder expands MUX into OR(AND(s,t), AND(!s,e)).
            root_gates = 3;
            break;
    }
    double parts = 0.0;
    for (const Bdd* part : {&cand.a, &cand.b, &cand.c}) {
        if (part->valid()) parts += part_size(ctx, *part);
    }
    return static_cast<double>(root_gates) + parts;
}

std::string_view strategy_name(StrategyKind kind) {
    switch (kind) {
        case StrategyKind::kSymmetric: return "symmetric";
        case StrategyKind::kExactSmallCone: return "exact-small-cone";
        case StrategyKind::kMajority: return "majority";
        case StrategyKind::kSimpleDominator: return "simple-dominator";
        case StrategyKind::kGeneralizedXor: return "generalized-xor";
        case StrategyKind::kShannonMux: return "shannon-mux";
    }
    return "?";
}

const std::vector<PresetInfo>& preset_catalog() {
    static const std::vector<PresetInfo> catalog = {
        {"paper",
         "majority -> simple dominators -> generalized XOR -> Shannon; "
         "byte-identical to the pre-framework engine"},
        {"exact-aggressive",
         "exact structures for small cones (enumerated NPN classes up to "
         "4 support variables), then the paper ladder"},
        {"best-cost",
         "all strategies propose every step; the candidate with the "
         "lowest estimated gate count wins"},
        {"symmetry",
         "totally symmetric cones served as ones-counting MAJ networks, "
         "then exact structures, then the paper ladder; symmetry-aware "
         "block sifting on"},
        {"shannon",
         "plain Shannon cofactor expansion only — the cheapest preset and "
         "the terminal stage of the degrade ladder; always terminates"},
    };
    return catalog;
}

bool is_known_preset(std::string_view name) {
    for (const PresetInfo& p : preset_catalog()) {
        if (p.name == name) return true;
    }
    return false;
}

StrategyPipelineConfig preset_pipeline(std::string_view name) {
    using K = StrategyKind;
    StrategyPipelineConfig config;
    if (name == "paper") {
        config.order = {K::kMajority, K::kSimpleDominator, K::kGeneralizedXor,
                        K::kShannonMux};
    } else if (name == "exact-aggressive") {
        config.order = {K::kExactSmallCone, K::kMajority, K::kSimpleDominator,
                        K::kGeneralizedXor, K::kShannonMux};
    } else if (name == "best-cost") {
        config.order = {K::kExactSmallCone, K::kMajority, K::kSimpleDominator,
                        K::kGeneralizedXor, K::kShannonMux};
        config.selection = SelectionMode::kBestCost;
    } else if (name == "symmetry") {
        config.order = {K::kSymmetric, K::kExactSmallCone, K::kMajority,
                        K::kSimpleDominator, K::kGeneralizedXor, K::kShannonMux};
    } else if (name == "shannon") {
        config.order = {K::kShannonMux};
    } else {
        std::string known;
        for (const PresetInfo& p : preset_catalog()) {
            if (!known.empty()) known += ", ";
            known += p.name;
        }
        throw std::invalid_argument("unknown decomposition preset \"" +
                                    std::string(name) + "\" (known: " + known + ")");
    }
    if (std::find(config.order.begin(), config.order.end(), K::kShannonMux) ==
        config.order.end()) {
        config.order.push_back(K::kShannonMux);
    }
    return config;
}

bool preset_sift_symmetry_default(std::string_view name) {
    return name == "symmetry" || name == "exact-aggressive" ||
           name == "best-cost";
}

}  // namespace bdsmaj::decomp
