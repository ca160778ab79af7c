#include "decomp/flow.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "decomp/cone_cache.hpp"
#include "network/builder.hpp"
#include "network/cleanup.hpp"
#include "network/gate_tape.hpp"

namespace bdsmaj::decomp {

namespace {

using bdd::Bdd;
using net::Network;
using net::NodeId;
using net::Signal;

/// Per-flow scratch reused by every supernode.
struct ConeScratch {
    /// The local BDD manager, reset() for each supernode (the BDS
    /// one-manager-per-supernode policy; a reset manager is observably a
    /// fresh one). Null until the first supernode; replaced when a guard
    /// trip or injected fault has poisoned it.
    std::unique_ptr<bdd::Manager> mgr;
};

/// One supernode, compiled by `cone`: local manager (the flow's, reset),
/// the local BDD built from the compiled cone, sift, decompose into the
/// supernode's private tape.
void decompose_supernode_to_tape(const ConeKeyBuilder& cone,
                                 const DecompFlowParams& params,
                                 ConeScratch& scratch, net::GateTape& tape,
                                 EngineStats& stats) {
    const std::size_t num_leaves = cone.num_leaves();
    const int num_vars = static_cast<int>(num_leaves);
    if (scratch.mgr == nullptr || scratch.mgr->poisoned()) {
        scratch.mgr = std::make_unique<bdd::Manager>(num_vars, params.manager);
    } else {
        scratch.mgr->reset(num_vars, params.manager);
    }
    bdd::Manager& mgr = *scratch.mgr;
    {
        const Bdd f = cone.build_bdd(mgr);
        if (params.reorder) mgr.sift();

        std::vector<Signal> leaves;
        leaves.reserve(num_leaves);
        // Variable i of the local manager is leaf i; sifting changes levels
        // but never variable identities, so this binding survives reorder.
        for (std::size_t i = 0; i < num_leaves; ++i) leaves.push_back(tape.leaf(i));

        BddDecomposer decomposer(mgr, tape, std::move(leaves), params.engine);
        tape.set_root(decomposer.decompose(f));
        stats = decomposer.stats();
        const bdd::ReorderStats& rs = mgr.reorder_stats();
        stats.sift_swaps = static_cast<long long>(rs.swaps);
        stats.sift_fast_swaps = static_cast<long long>(rs.fast_swaps);
        stats.sift_lb_aborts = static_cast<long long>(rs.lb_aborts);
        stats.peak_bdd_nodes = static_cast<long long>(mgr.peak_node_count());
        stats.sift_sym_groups = static_cast<long long>(rs.sym_groups);
        stats.sift_block_swaps = static_cast<long long>(rs.sym_block_swaps);
    }  // every Bdd handle dies here, before the next supernode's reset
}

/// One rung of the degrade ladder: a full parameter set plus its own
/// cone-cache config blob (tapes depend on every knob, so a degraded cone
/// must never share cache entries with a full-effort one).
struct DegradeStage {
    DecompFlowParams params;
    std::string config;
};

/// Derive a cheaper stage from the requested parameters: the `paper`
/// preset, sift effort clamped. The terminal stage runs `shannon` instead
/// and additionally turns reordering and the resource guards off, so plain
/// Shannon expansion — linear in the cone's BDD — always terminates.
DecompFlowParams degraded_stage_params(const DecompFlowParams& base, bool terminal) {
    DecompFlowParams p = base;
    p.engine.preset = terminal ? "shannon" : "paper";
    p.manager.sift_converge = false;
    p.manager.sift_max_growth = std::min(p.manager.sift_max_growth, 1.1);
    p.manager.sift_symmetry = false;
    if (terminal) {
        p.reorder = false;
        p.manager.max_live_nodes = 0;
        p.manager.sift_max_swaps = 0;
    }
    return p;
}

/// Decompose one supernode into a finished (shared, immutable) tape —
/// through the cone cache when enabled. The cone is compiled either way;
/// its BDD is built from the compiled cone. On a hit the cached tape and
/// the cached cold-run stats are returned (with cone_cache_hits = 1); on a
/// miss the freshly recorded tape is published for future lookups. Either
/// way the tape bytes are those a cache-off run would have produced.
[[nodiscard]] std::shared_ptr<const net::GateTape> produce_tape(
        const Network& input, const Supernode& sn, const DecompFlowParams& params,
        const std::string& config, ConeScratch& scratch, ConeKeyBuilder& cone,
        EngineStats& stats) {
    const ConeKey key = cone.build(input, sn, config);
    if (!params.cone_cache) {
        auto tape = std::make_shared<net::GateTape>(sn.leaves.size());
        decompose_supernode_to_tape(cone, params, scratch, *tape, stats);
        return tape;
    }
    if (std::shared_ptr<const ConeCacheValue> hit = ConeCache::instance().lookup(key)) {
        stats = hit->stats;
        stats.cone_cache_hits = 1;
        return hit->tape;
    }
    auto tape = std::make_shared<net::GateTape>(sn.leaves.size());
    decompose_supernode_to_tape(cone, params, scratch, *tape, stats);
    tape->shrink_to_fit();
    ConeCache::instance().insert(key, tape, stats);
    stats.cone_cache_misses = 1;
    return tape;
}

}  // namespace

DecompFlowParams resolve_flow_params(DecompFlowParams params) {
    // The one preset check of a flow: it runs before partitioning, so a
    // network without supernodes rejects an unknown name too.
    params.manager.sift_symmetry = find_preset(params.engine.preset).sift_symmetry;
    params.engine.exact_max_support =
        std::min(params.engine.exact_max_support, kMaxExactSupport);
    return params;
}

DecompFlowResult decompose_network(const Network& input, const DecompFlowParams& orig_params) {
    const auto start = std::chrono::steady_clock::now();

    DecompFlowParams params = resolve_flow_params(orig_params);

    const std::vector<Supernode> supernodes =
        partition_network(input, params.partition);

    Network out(input.model_name());
    net::HashedNetworkBuilder builder(out);
    std::vector<Signal> signal_of(input.node_count(), Signal{});
    for (const NodeId id : input.inputs()) {
        signal_of[id] = Signal{out.add_input(input.node(id).name), false};
    }

    // One config blob per flow: the canonical-key prefix capturing every
    // knob the emitted tapes depend on.
    const std::string cone_config =
        params.cone_cache
            ? cone_cache_config_blob(params.engine, params.manager, params.reorder)
            : std::string{};
    const long long cone_evictions_before =
        params.cone_cache ? ConeCache::instance().stats().evictions : 0;

    // Graceful degradation: stages are built only when something can
    // trigger them (a soft budget or a resource guard), so the default
    // configuration never touches any of this. degrade_floor is the
    // flow-wide stage every new cone starts at — 0 = full effort; it
    // ratchets to 1 when the soft budget expires. A cone whose stage trips
    // a ResourceExhausted escalates privately past the floor.
    const bool degradable = params.soft_budget.has_value() ||
                            params.manager.max_live_nodes != 0 ||
                            params.manager.sift_max_swaps != 0;
    std::vector<DegradeStage> stages;
    if (degradable) {
        // The fixed ladder: `paper` with clamped sifting, then terminal
        // `shannon`.
        for (const bool terminal : {false, true}) {
            DegradeStage stage;
            stage.params = degraded_stage_params(params, terminal);
            stage.config = stage.params.cone_cache
                               ? cone_cache_config_blob(stage.params.engine,
                                                        stage.params.manager,
                                                        stage.params.reorder)
                               : std::string{};
            stages.push_back(std::move(stage));
        }
    }
    int degrade_floor = 0;
    // produce_tape plus the ladder: start at the flow-wide floor, escalate
    // on ResourceExhausted. InjectedFault and everything else propagate —
    // the ladder absorbs resource-guard trips only.
    ConeScratch scratch;
    ConeKeyBuilder cone;
    const auto produce_staged = [&](const Supernode& sn, EngineStats& stats)
            -> std::shared_ptr<const net::GateTape> {
        if (degrade_floor == 0 && params.soft_budget &&
            std::chrono::steady_clock::now() >= *params.soft_budget) {
            degrade_floor = 1;
        }
        int level = degrade_floor;
        long long guard_trips = 0;
        for (;;) {
            const DecompFlowParams& sp =
                level == 0 ? params : stages[static_cast<std::size_t>(level - 1)].params;
            const std::string& cfg =
                level == 0 ? cone_config
                           : stages[static_cast<std::size_t>(level - 1)].config;
            try {
                std::shared_ptr<const net::GateTape> tape =
                    produce_tape(input, sn, sp, cfg, scratch, cone, stats);
                // After produce_tape: it overwrites `stats` wholesale (and
                // cached entries must stay degrade-agnostic).
                if (level > 0) ++stats.degraded_supernodes;
                stats.resource_exhausted_cones += guard_trips;
                return tape;
            } catch (const ResourceExhausted&) {
                if (level >= static_cast<int>(stages.size())) throw;
                ++level;
                ++guard_trips;
            }
        }
    };

    // Decompose and replay one supernode at a time, so only one tape is
    // ever live. Tapes replay in supernode order.
    DecompFlowResult result;
    std::vector<Signal> leaf_signals;
    for (const Supernode& sn : supernodes) {
        // Per-supernode checkpoint: the hard deadline. With no deadline
        // configured this costs one branch — no clock read.
        if (params.deadline &&
            std::chrono::steady_clock::now() >= *params.deadline) {
            throw DeadlineExceeded();
        }
        EngineStats stats;
        const std::shared_ptr<const net::GateTape> tape = produce_staged(sn, stats);
        leaf_signals.clear();
        for (const NodeId leaf : sn.leaves) leaf_signals.push_back(signal_of[leaf]);
        signal_of[sn.root] = tape->replay(builder, leaf_signals);
        result.engine_stats += stats;
    }

    if (params.cone_cache) {
        // Flow-level cache telemetry: evictions attributable to this run
        // (approximate under concurrent flows) and the footprint snapshot.
        // Hit/miss counts were accumulated per supernode above.
        const ConeCacheStats cs = ConeCache::instance().stats();
        result.engine_stats.cone_cache_evictions = cs.evictions - cone_evictions_before;
        result.engine_stats.cone_cache_bytes = cs.bytes;
    }

    for (const net::OutputPort& po : input.outputs()) {
        out.add_output(po.name, builder.realize(signal_of[po.driver]));
    }

    result.supernode_count = static_cast<int>(supernodes.size());
    result.network = net::cleanup(out);
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return result;
}

DecompFlowResult run_bdsmaj(const Network& input) {
    DecompFlowParams params;
    params.engine.use_majority = true;
    return decompose_network(input, params);
}

DecompFlowResult run_bdspga(const Network& input) {
    DecompFlowParams params;
    params.engine.use_majority = false;
    return decompose_network(input, params);
}

}  // namespace bdsmaj::decomp
