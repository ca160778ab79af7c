#include "decomp/flow.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bdd/manager_pool.hpp"
#include "decomp/cone_cache.hpp"
#include "network/builder.hpp"
#include "network/cleanup.hpp"
#include "network/gate_tape.hpp"
#include "network/simulate.hpp"
#include "runtime/scheduler.hpp"

namespace bdsmaj::decomp {

namespace {

using bdd::Bdd;
using net::Network;
using net::NodeId;
using net::Signal;

/// Per-worker scratch for dense cone evaluation: node id -> (dense
/// position + 1) within the current supernode, 0 = not in this supernode.
/// Entries are reset after each supernode, so the O(network) allocation
/// happens once per worker, not once per supernode.
struct ConeScratch {
    std::vector<std::uint32_t> pos;
};

/// Build the local BDD of a supernode: leaves become manager variables in
/// order, cone nodes evaluate bottom-up into a dense vector indexed by
/// cone position (this is a per-supernode hot loop; a hash map here cost
/// a lookup per gate input).
Bdd build_supernode_bdd(bdd::Manager& mgr, const Network& network,
                        const Supernode& sn, ConeScratch& scratch) {
    if (scratch.pos.size() < network.node_count()) {
        scratch.pos.resize(network.node_count(), 0);
    }
    const std::size_t num_leaves = sn.leaves.size();
    std::vector<Bdd> value(num_leaves + sn.cone.size());
    // Reset on every exit, including the malformed-supernode throw below:
    // the scratch is reused for later supernodes on this worker, and a
    // stale nonzero entry would alias an unrelated node into their cones.
    // Entries not yet stamped are 0, so the unconditional sweep is safe.
    struct ScratchReset {
        ConeScratch& scratch;
        const Supernode& sn;
        ~ScratchReset() {
            for (const NodeId leaf : sn.leaves) scratch.pos[leaf] = 0;
            for (const NodeId id : sn.cone) scratch.pos[id] = 0;
        }
    } reset_guard{scratch, sn};
    // Position 0 is the "not in this supernode" sentinel; a malformed
    // supernode (cone fanin outside leaves + earlier cone) must stay a
    // clean error in Release builds too, not an out-of-bounds read.
    const auto at = [&](NodeId fanin) -> const Bdd& {
        const std::uint32_t p = scratch.pos[fanin];
        if (p == 0) {
            throw std::logic_error("supernode cone references node " +
                                   std::to_string(fanin) +
                                   " outside its leaves/cone");
        }
        return value[p - 1];
    };
    for (std::size_t i = 0; i < num_leaves; ++i) {
        assert(scratch.pos[sn.leaves[i]] == 0);
        scratch.pos[sn.leaves[i]] = static_cast<std::uint32_t>(i + 1);
        value[i] = mgr.var_bdd(static_cast<int>(i));
    }
    for (std::size_t j = 0; j < sn.cone.size(); ++j) {
        const NodeId id = sn.cone[j];
        const net::Node& n = network.node(id);
        const auto in = [&](std::size_t k) -> const Bdd& { return at(n.fanins[k]); };
        Bdd result;
        switch (n.kind) {
            case net::GateKind::kInput:
                assert(false && "inputs cannot be cone-internal");
                result = mgr.zero();
                break;
            case net::GateKind::kConst0: result = mgr.zero(); break;
            case net::GateKind::kConst1: result = mgr.one(); break;
            case net::GateKind::kBuf: result = in(0); break;
            case net::GateKind::kNot: result = !in(0); break;
            case net::GateKind::kAnd: result = mgr.apply_and(in(0), in(1)); break;
            case net::GateKind::kOr: result = mgr.apply_or(in(0), in(1)); break;
            case net::GateKind::kNand: result = !mgr.apply_and(in(0), in(1)); break;
            case net::GateKind::kNor: result = !mgr.apply_or(in(0), in(1)); break;
            case net::GateKind::kXor: result = mgr.apply_xor(in(0), in(1)); break;
            case net::GateKind::kXnor: result = mgr.apply_xnor(in(0), in(1)); break;
            case net::GateKind::kMaj: result = mgr.maj(in(0), in(1), in(2)); break;
            case net::GateKind::kMux: result = mgr.ite(in(0), in(1), in(2)); break;
            case net::GateKind::kSop:
                result = net::sop_to_bdd(mgr, n.sop, in);
                break;
        }
        assert(scratch.pos[id] == 0);
        scratch.pos[id] = static_cast<std::uint32_t>(num_leaves + j + 1);
        value[num_leaves + j] = std::move(result);
    }
    return at(sn.root);
}

/// Stage 1 of the pipeline, for one supernode: pooled local manager (the
/// BDS local-BDD policy; Manager::reset makes the lease equivalent to a
/// fresh construction while reusing the previous cone's heap blocks),
/// sift, decompose into the supernode's private tape. Runs with no shared
/// mutable state, so any number of these can execute concurrently.
void decompose_supernode_to_tape(const Network& input, const Supernode& sn,
                                 const DecompFlowParams& params,
                                 ConeScratch& scratch, net::GateTape& tape,
                                 EngineStats& stats) {
    bdd::ManagerPool::Lease lease = bdd::ManagerPool::instance().acquire(
        static_cast<int>(sn.leaves.size()), params.manager);
    bdd::Manager& mgr = *lease;
    {
        const Bdd f = build_supernode_bdd(mgr, input, sn, scratch);
        if (params.reorder) mgr.sift();

        std::vector<Signal> leaves;
        leaves.reserve(sn.leaves.size());
        // Variable i of the local manager is leaf i; sifting changes levels
        // but never variable identities, so this binding survives reorder.
        for (std::size_t i = 0; i < sn.leaves.size(); ++i) leaves.push_back(tape.leaf(i));

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
    }  // every Bdd handle dies here, before the lease returns to the pool
}

/// Per-worker state for the per-supernode stage.
struct WorkerState {
    ConeScratch scratch;
    ConeKeyBuilder keys;
};

/// One rung of the degrade ladder: a full parameter set plus its own
/// cone-cache config blob (tapes depend on every knob, so a degraded cone
/// must never share cache entries with a full-effort one).
struct DegradeStage {
    DecompFlowParams params;
    std::string config;
};

/// Derive a cheaper stage from the requested parameters: the stage's
/// preset, sift effort clamped. The terminal stage additionally turns
/// reordering and the resource guards off, so plain Shannon expansion —
/// linear in the cone's BDD — always terminates.
DecompFlowParams degraded_stage_params(const DecompFlowParams& base,
                                       const std::string& preset, bool terminal) {
    DecompFlowParams p = base;
    p.engine.preset = preset;
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
/// through the cone cache when enabled. On a hit the cached tape and the
/// cached cold-run stats are returned (with cone_cache_hits = 1); on a
/// miss the freshly recorded tape is published for future lookups. Either
/// way the tape bytes are those a cache-off run would have produced.
[[nodiscard]] std::shared_ptr<const net::GateTape> produce_tape(
        const Network& input, const Supernode& sn, const DecompFlowParams& params,
        const std::string& config, WorkerState& ws, EngineStats& stats) {
    if (!params.cone_cache) {
        auto tape = std::make_shared<net::GateTape>(sn.leaves.size());
        decompose_supernode_to_tape(input, sn, params, ws.scratch, *tape, stats);
        return tape;
    }
    const ConeKey key = ws.keys.build(input, sn, config);
    if (std::shared_ptr<const ConeCacheValue> hit = ConeCache::instance().lookup(key)) {
        stats = hit->stats;
        stats.cone_cache_hits = 1;
        return hit->tape;
    }
    auto tape = std::make_shared<net::GateTape>(sn.leaves.size());
    decompose_supernode_to_tape(input, sn, params, ws.scratch, *tape, stats);
    tape->shrink_to_fit();
    ConeCache::instance().insert(key, tape, stats);
    stats.cone_cache_misses = 1;
    return tape;
}

}  // namespace

DecompFlowParams resolve_flow_params(DecompFlowParams params) {
    params.manager.sift_symmetry =
        params.sift_symmetry < 0
            ? preset_sift_symmetry_default(params.engine.preset)
            : params.sift_symmetry != 0;
    params.engine.exact_max_support =
        std::min(params.engine.exact_max_support, kMaxExactSupport);
    return params;
}

DecompFlowResult decompose_network(const Network& input, const DecompFlowParams& orig_params) {
    const auto start = std::chrono::steady_clock::now();

    DecompFlowParams params = resolve_flow_params(orig_params);

    const std::vector<Supernode> supernodes =
        partition_network(input, params.partition);
    const int jobs = runtime::effective_jobs(params.jobs);
    const int workers = runtime::parallel_for_worker_count(supernodes.size(), jobs);

    Network out(input.model_name());
    net::HashedNetworkBuilder builder(out);
    std::vector<Signal> signal_of(input.node_count(), Signal{});
    for (const NodeId id : input.inputs()) {
        signal_of[id] = Signal{out.add_input(input.node(id).name), false};
    }

    DecompFlowResult result;
    std::vector<Signal> leaf_signals;
    const auto replay_tape = [&](const Supernode& sn, const net::GateTape& tape) {
        leaf_signals.clear();
        leaf_signals.reserve(sn.leaves.size());
        for (const NodeId leaf : sn.leaves) leaf_signals.push_back(signal_of[leaf]);
        signal_of[sn.root] = tape.replay(builder, leaf_signals);
    };

    // Both branches drive the builder with the identical call sequence —
    // tape i replayed after tapes [0, i) — so the output network is
    // byte-identical at any worker count.
    const auto cancelled = [&params] {
        return params.cancel != nullptr &&
               params.cancel->load(std::memory_order_relaxed);
    };
    // Per-supernode checkpoint: cancellation, then the hard deadline. With
    // no deadline configured this costs one branch — no clock read.
    const auto checkpoint = [&] {
        if (cancelled()) throw FlowCancelled();
        if (params.deadline &&
            std::chrono::steady_clock::now() >= *params.deadline) {
            throw DeadlineExceeded();
        }
    };

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
        std::vector<std::string> ladder = params.degrade_ladder;
        if (ladder.empty()) ladder.push_back("paper");
        if (ladder.back() != "shannon") ladder.push_back("shannon");
        stages.reserve(ladder.size());
        for (std::size_t s = 0; s < ladder.size(); ++s) {
            DegradeStage stage;
            stage.params = degraded_stage_params(params, ladder[s],
                                                 /*terminal=*/s + 1 == ladder.size());
            // Validates the preset name too (throws on an unknown one
            // before any supernode runs).
            preset_pipeline(ladder[s]);
            stage.config = stage.params.cone_cache
                               ? cone_cache_config_blob(stage.params.engine,
                                                        stage.params.manager,
                                                        stage.params.reorder)
                               : std::string{};
            stages.push_back(std::move(stage));
        }
    }
    std::atomic<int> degrade_floor{0};
    const auto degrade_level = [&]() -> int {
        if (!degradable) return 0;
        int level = degrade_floor.load(std::memory_order_relaxed);
        if (level == 0 && params.soft_budget &&
            std::chrono::steady_clock::now() >= *params.soft_budget) {
            degrade_floor.store(1, std::memory_order_relaxed);
            level = 1;
        }
        return level;
    };
    // produce_tape plus the ladder: start at the flow-wide floor, escalate
    // on ResourceExhausted. InjectedFault and everything else propagate —
    // the ladder absorbs resource-guard trips only.
    const auto produce_staged = [&](const Supernode& sn, WorkerState& ws,
                                    EngineStats& stats)
            -> std::shared_ptr<const net::GateTape> {
        int level = degrade_level();
        long long guard_trips = 0;
        for (;;) {
            const DecompFlowParams& sp =
                level == 0 ? params : stages[static_cast<std::size_t>(level - 1)].params;
            const std::string& cfg =
                level == 0 ? cone_config
                           : stages[static_cast<std::size_t>(level - 1)].config;
            try {
                std::shared_ptr<const net::GateTape> tape =
                    produce_tape(input, sn, sp, cfg, ws, stats);
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

    if (workers <= 1) {
        // Serial: decompose and replay one supernode at a time, so only
        // one tape is ever live (the batch path below would hold the gate
        // IR of the whole network at once for no parallelism in return).
        WorkerState ws;
        for (const Supernode& sn : supernodes) {
            checkpoint();
            EngineStats stats;
            const std::shared_ptr<const net::GateTape> tape =
                produce_staged(sn, ws, stats);
            replay_tape(sn, *tape);
            result.engine_stats += stats;
        }
    } else {
        // Pipelined: stage 1 (per-supernode {local BDD, sift, decompose}
        // into private tapes) fans out over the shared process pool while
        // THIS thread replays finished tapes strictly in supernode order
        // into the shared hash-consing builder — replay of tape i overlaps
        // the decomposition of i+1. The fixed replay order is what keeps
        // the output byte-identical at any worker count; the window caps
        // how many decomposed-but-unreplayed tapes are held at once, so
        // memory stays bounded instead of holding the gate IR of the
        // whole network.
        const std::size_t n = supernodes.size();
        std::vector<std::shared_ptr<const net::GateTape>> tapes(n);
        std::vector<EngineStats> stats_of(n);
        std::vector<WorkerState> worker_state(static_cast<std::size_t>(workers));
        const std::size_t window =
            params.replay_window > 0
                ? static_cast<std::size_t>(params.replay_window)
                : 2 * static_cast<std::size_t>(workers) + 2;

        std::mutex m;
        std::condition_variable ready_cv;  // replayer waits for tape `replayed`
        std::condition_variable space_cv;  // runners wait for window space
        std::size_t next = 0;              // next supernode to decompose
        std::size_t replayed = 0;          // tapes already merged
        std::vector<std::uint8_t> ready(n, 0);
        std::exception_ptr err;

        const auto decompose_one = [&](std::size_t i, int slot) {
            try {
                // Per-supernode cancellation/deadline checkpoint: stop
                // before starting another cone; the shared error slot
                // aborts the rest of the pipeline exactly like a failure
                // would.
                checkpoint();
                tapes[i] = produce_staged(supernodes[i],
                                          worker_state[static_cast<std::size_t>(slot)],
                                          stats_of[i]);
            } catch (...) {
                std::lock_guard<std::mutex> lock(m);
                if (!err) err = std::current_exception();
                space_cv.notify_all();
            }
            std::lock_guard<std::mutex> lock(m);
            ready[i] = 1;
            ready_cv.notify_all();
        };

        const std::function<void(int)> runner = [&](int slot) {
            for (;;) {
                std::size_t i;
                {
                    std::unique_lock<std::mutex> lock(m);
                    // Strict <: next - replayed counts in-flight tapes
                    // too, so this is what holds the outstanding gate IR
                    // to at most `window` supernodes.
                    space_cv.wait(lock, [&] {
                        return err != nullptr || next >= n ||
                               next - replayed < window;
                    });
                    if (err != nullptr || next >= n) break;
                    i = next++;
                }
                decompose_one(i, slot);
            }
        };

        runtime::HelperSet helpers(workers - 1, runner);
        // The caller is the replayer — and runner slot 0: when the next
        // tape in order is not ready yet it decomposes a supernode itself
        // instead of idling, so progress never depends on the pool having
        // free workers (decompose_network stays safe to call from inside
        // a pool task).
        {
            std::unique_lock<std::mutex> lock(m);
            while (replayed < n && err == nullptr) {
                if (cancelled()) {
                    err = std::make_exception_ptr(FlowCancelled());
                    space_cv.notify_all();
                    break;
                }
                if (params.deadline &&
                    std::chrono::steady_clock::now() >= *params.deadline) {
                    err = std::make_exception_ptr(DeadlineExceeded());
                    space_cv.notify_all();
                    break;
                }
                if (ready[replayed]) {
                    const std::size_t i = replayed;
                    lock.unlock();
                    try {
                        replay_tape(supernodes[i], *tapes[i]);
                        tapes[i].reset();  // drop this flow's tape reference now
                    } catch (...) {
                        lock.lock();
                        if (!err) err = std::current_exception();
                        space_cv.notify_all();
                        break;
                    }
                    result.engine_stats += stats_of[i];
                    lock.lock();
                    ++replayed;
                    space_cv.notify_all();
                } else if (next < n && next - replayed < window) {
                    const std::size_t i = next++;
                    lock.unlock();
                    decompose_one(i, 0);
                    lock.lock();
                } else {
                    ready_cv.wait(lock, [&] {
                        return ready[replayed] != 0 || err != nullptr;
                    });
                }
            }
        }
        helpers.join();
        if (err) std::rethrow_exception(err);
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
    result.network = params.final_cleanup ? net::cleanup(out) : std::move(out);
    if (params.self_check) {
        net::CecParams cec;
        cec.engine = params.oracle;
        net::EquivalenceResult eq = net::check_equivalent(input, result.network, cec);
        if (!eq.equivalent) {
            throw std::runtime_error("decompose_network: self-check failed (engine " +
                                     std::string(net::equiv_engine_name(eq.engine)) +
                                     "): " + eq.reason);
        }
        result.equivalence = std::move(eq);
    }
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
