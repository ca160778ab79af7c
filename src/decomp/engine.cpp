#include "decomp/engine.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

#include "decomp/dominators.hpp"

namespace bdsmaj::decomp {

namespace {

using bdd::Bdd;
using bdd::Edge;
using net::Signal;

}  // namespace

EngineStats& EngineStats::operator+=(const EngineStats& o) {
    and_steps += o.and_steps;
    or_steps += o.or_steps;
    xor_steps += o.xor_steps;
    maj_steps += o.maj_steps;
    mux_steps += o.mux_steps;
    exact_steps += o.exact_steps;
    symmetric_steps += o.symmetric_steps;
    gen_xor_steps += o.gen_xor_steps;
    maj_attempts += o.maj_attempts;
    maj_rejected += o.maj_rejected;
    literal_leaves += o.literal_leaves;
    sym_cone_checks += o.sym_cone_checks;
    sym_cone_total += o.sym_cone_total;
    cone_cache_hits += o.cone_cache_hits;
    cone_cache_misses += o.cone_cache_misses;
    cone_cache_evictions += o.cone_cache_evictions;
    cone_cache_bytes = std::max(cone_cache_bytes, o.cone_cache_bytes);
    sift_swaps += o.sift_swaps;
    sift_fast_swaps += o.sift_fast_swaps;
    sift_lb_aborts += o.sift_lb_aborts;
    peak_bdd_nodes = std::max(peak_bdd_nodes, o.peak_bdd_nodes);
    sift_sym_groups += o.sift_sym_groups;
    sift_block_swaps += o.sift_block_swaps;
    degraded_supernodes += o.degraded_supernodes;
    resource_exhausted_cones += o.resource_exhausted_cones;
    return *this;
}

int EngineStats::steps_for(StrategyKind kind) const noexcept {
    switch (kind) {
        case StrategyKind::kSymmetric: return symmetric_steps;
        case StrategyKind::kExactSmallCone: return exact_steps;
        case StrategyKind::kMajority: return maj_steps;
        case StrategyKind::kSimpleDominator:
            return and_steps + or_steps + (xor_steps - gen_xor_steps);
        case StrategyKind::kGeneralizedXor: return gen_xor_steps;
        case StrategyKind::kShannonMux: return mux_steps;
    }
    return 0;
}

BddDecomposer::BddDecomposer(bdd::Manager& mgr, net::GateSink& sink,
                             std::vector<net::Signal> leaves, EngineParams params)
    : mgr_(mgr),
      builder_(sink),
      leaves_(std::move(leaves)),
      params_(std::move(params)),
      preset_(find_preset(params_.preset)) {}

Signal BddDecomposer::decompose(const Bdd& f) {
    assert(f.manager() == &mgr_);
    return decompose_edge(f.edge());
}

Signal BddDecomposer::decompose_edge(Edge e) {
    if (bdd::edge_complemented(e)) return !decompose_edge(bdd::edge_not(e));
    if (e == bdd::kEdgeOne) return builder_.constant(true);
    const auto it = memo_.find(e);
    if (it != memo_.end()) return it->second;
    memo_pins_.push_back(mgr_.from_edge(e));  // pin before any op can GC
    const Signal s = decompose_regular(e);
    memo_.emplace(e, s);
    return s;
}

Signal BddDecomposer::emit(const Candidate& cand) {
    switch (cand.op) {
        case Candidate::Op::kAnd: {
            ++stats_.and_steps;
            const Signal q = decompose_edge(cand.a.edge());
            const Signal d = decompose_edge(cand.b.edge());
            return builder_.build_and(q, d);
        }
        case Candidate::Op::kOr: {
            ++stats_.or_steps;
            const Signal q = decompose_edge(cand.a.edge());
            const Signal d = decompose_edge(cand.b.edge());
            return builder_.build_or(q, d);
        }
        case Candidate::Op::kXor: {
            ++stats_.xor_steps;
            if (cand.source == StrategyKind::kGeneralizedXor) ++stats_.gen_xor_steps;
            const Signal q = decompose_edge(cand.a.edge());
            const Signal d = decompose_edge(cand.b.edge());
            return builder_.build_xor(q, d);
        }
        case Candidate::Op::kMaj: {
            ++stats_.maj_steps;
            const Signal sa = decompose_edge(cand.a.edge());
            const Signal sb = decompose_edge(cand.b.edge());
            const Signal sc = decompose_edge(cand.c.edge());
            return builder_.build_maj(sa, sb, sc);
        }
        case Candidate::Op::kMux: {
            ++stats_.mux_steps;
            assert(cand.mux_var >= 0 &&
                   static_cast<std::size_t>(cand.mux_var) < leaves_.size());
            const Signal sel = leaves_[static_cast<std::size_t>(cand.mux_var)];
            const Signal hi = decompose_edge(cand.a.edge());
            const Signal lo = decompose_edge(cand.b.edge());
            return builder_.build_mux(sel, hi, lo);
        }
        case Candidate::Op::kExact: {
            ++stats_.exact_steps;
            assert(cand.structure != nullptr);
            return emit_exact_cone(cand.match, *cand.structure, builder_, leaves_);
        }
        case Candidate::Op::kSymmetric: {
            ++stats_.symmetric_steps;
            std::vector<Signal> inputs;
            inputs.reserve(cand.sym_vars.size());
            for (const int v : cand.sym_vars) {
                assert(v >= 0 && static_cast<std::size_t>(v) < leaves_.size());
                inputs.push_back(leaves_[static_cast<std::size_t>(v)]);
            }
            return build_symmetric_network(builder_, inputs, cand.sym_values);
        }
    }
    assert(false && "unreachable candidate op");
    return Signal{};
}

Signal BddDecomposer::decompose_regular(Edge e) {
    const Bdd f = mgr_.from_edge(e);
    const int top_var = mgr_.edge_top_var(e);

    // Stage 0: literal. Terminal for the recursion, so it stays
    // engine-internal rather than being a strategy.
    if (mgr_.edge_then(e) == bdd::kEdgeOne && mgr_.edge_else(e) == bdd::kEdgeZero) {
        ++stats_.literal_leaves;
        assert(static_cast<std::size_t>(top_var) < leaves_.size());
        return leaves_[static_cast<std::size_t>(top_var)];
    }

    DominatorAnalysis analysis(mgr_, f);
    // |dag(f)| falls out of the analysis DAG; every strategy shares it
    // instead of re-traversing f per recursion step.
    StepContext ctx{mgr_, f, analysis, analysis.nodes().size(), params_, stats_};

    std::optional<Candidate> chosen;
    double best_cost = 0.0;
    for (const StrategyKind kind : preset_.order) {
        if (kind == StrategyKind::kMajority && !params_.use_majority) continue;
        std::optional<Candidate> cand = propose(kind, ctx);
        if (!cand) continue;
        if (preset_.selection == SelectionMode::kFirstFit) return emit(*cand);
        const double c = candidate_gate_cost(*cand, ctx);
        // Strict <: ties go to the earlier stage in the preset's order.
        if (!chosen || c < best_cost) {
            best_cost = c;
            chosen = std::move(cand);
        }
    }
    // Every preset's order ends in ShannonMux, which always proposes, so
    // a candidate always exists.
    assert(chosen.has_value());
    return emit(*chosen);
}

}  // namespace bdsmaj::decomp
