#pragma once
// The complete BDS-MAJ logic decomposition flow (paper Fig. 3):
//   input network -> partition into supernodes -> per-supernode local BDD
//   (with sifting reorder) -> dominator/majority-driven decomposition ->
//   factoring trees with on-line sharing -> cleaned decomposed network.
//
// `use_majority = false` gives the BDS-PGA baseline of Table I.
//
// The per-supernode stage (local BDD build, sifting, decomposition) is
// embarrassingly parallel: every supernode gets a fresh manager and writes
// its factoring tree to a private GateTape. The tapes are replayed by the
// calling thread, strictly in supernode order, into the shared
// hash-consing builder — pipelined with the decomposition of later
// supernodes (replay of tape i overlaps the decomposition of i+1, with a
// bounded tape window), on the process-wide shared pool
// (runtime::global_pool()). On-line sharing is preserved and the output
// network is byte-identical at any `jobs` setting (see
// docs/performance.md, "Parallel pipeline").

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "decomp/engine.hpp"
#include "decomp/partition.hpp"
#include "network/cec.hpp"
#include "network/network.hpp"

namespace bdsmaj::decomp {

/// Thrown by decompose_network when its cancellation token fires; the
/// synthesis service maps it to JobStatus::kCancelled (not a failure).
class FlowCancelled : public std::runtime_error {
public:
    FlowCancelled() : std::runtime_error("synthesis flow cancelled") {}
};

/// Thrown by decompose_network at a per-supernode checkpoint once
/// DecompFlowParams::deadline has passed; the synthesis service maps it to
/// JobStatus::kDeadlineExceeded (a terminal status, not a failure).
class DeadlineExceeded : public std::runtime_error {
public:
    DeadlineExceeded() : std::runtime_error("synthesis deadline exceeded") {}
};

/// The recoverable resource-guard exception (see bdd::ManagerParams::
/// max_live_nodes / sift_max_swaps). decompose_network catches it per
/// supernode and retries the cone down the degrade ladder; it only
/// escapes when even the terminal stage trips, which the terminal stage's
/// lifted guards make impossible by construction.
using ResourceExhausted = bdd::ResourceExhausted;

struct DecompFlowParams {
    EngineParams engine;
    PartitionParams partition;
    /// Tuning for the per-supernode BDD managers — in particular the
    /// reordering budget (sift_max_growth / sift_max_vars / sift_converge;
    /// see bdd::ManagerParams). Defaults reproduce the paper presets
    /// byte-for-byte; sift_converge trades decomposition time for smaller
    /// local BDDs and may change (equivalent) output structure.
    bdd::ManagerParams manager;
    /// Sift each supernode's local BDD before decomposing (paper SIV-B).
    bool reorder = true;
    /// Symmetry-aware sifting (detect symmetric variable groups, move them
    /// as blocks): -1 = let the preset decide
    /// (preset_sift_symmetry_default; off for `paper` and the pinned
    /// baselines, on for `symmetry`/`exact-aggressive`/`best-cost`),
    /// 0 = force off, 1 = force on. Resolved once at decompose_network
    /// entry into manager.sift_symmetry, before the cone-cache config blob
    /// is computed.
    int sift_symmetry = -1;
    /// Consult the process-wide canonical cone cache
    /// (decomp/cone_cache.hpp): a supernode whose canonical cone signature
    /// was decomposed before — by this run, an earlier run, or a
    /// concurrent job — replays the cached GateTape instead of building,
    /// sifting and decomposing its local BDD. The output network is
    /// byte-identical either way (the cache key captures everything the
    /// emitted tape depends on); only the cone_cache_* telemetry differs.
    bool cone_cache = true;
    /// Run structural cleanup on the result.
    bool final_cleanup = true;
    /// Worker budget for the per-supernode stage: 1 = serial on the
    /// calling thread, N > 1 = up to N concurrent runners on the shared
    /// process pool (runtime::global_pool()), <= 0 = all hardware
    /// threads. The output network does not depend on this.
    int jobs = 1;
    /// Parallel path only: how many decomposed-but-not-yet-replayed tapes
    /// may exist at once. Replay of supernode i is pipelined with the
    /// decomposition of later supernodes, and this window bounds the gate
    /// IR held in memory; <= 0 picks 2 * workers + 2. The output network
    /// does not depend on this either.
    int replay_window = 0;
    /// Cooperative cancellation token. When non-null and set (by any
    /// thread), decompose_network stops at the next per-supernode
    /// checkpoint — before decomposing or replaying another supernode —
    /// and throws FlowCancelled. Null = not cancellable.
    const std::atomic<bool>* cancel = nullptr;
    /// Absolute hard deadline. Checked at the same per-supernode
    /// checkpoints as `cancel`; once passed, decompose_network throws
    /// DeadlineExceeded. Unset = no deadline (and no clock reads).
    std::optional<std::chrono::steady_clock::time_point> deadline;
    /// Absolute soft budget. Once passed, remaining supernodes are
    /// decomposed on the degrade ladder below instead of the requested
    /// parameters — the flow finishes with a valid (equivalent, but
    /// cheaper-effort) network rather than dying. Which supernodes land on
    /// the ladder is timing-dependent; EngineStats::degraded_supernodes
    /// counts them. Unset = no budget (and no clock reads).
    std::optional<std::chrono::steady_clock::time_point> soft_budget;
    /// Preset names tried in order for a degraded or guard-tripped
    /// supernode (each stage also clamps sift effort). "shannon" — plain cofactor expansion with reordering
    /// and resource guards off, which always terminates — is appended as
    /// the terminal stage when missing. Empty = {"paper", "shannon"}.
    /// Only consulted when a soft budget or a resource guard
    /// (manager.max_live_nodes / manager.sift_max_swaps) is configured.
    std::vector<std::string> degrade_ladder;
    /// Equivalence engine for the optional sign-off below (and for callers
    /// that verify externally and want one knob to thread through).
    net::EquivEngine oracle = net::EquivEngine::kAuto;
    /// Verify the decomposed network against the input before returning.
    /// The verdict lands in DecompFlowResult::equivalence; an inequivalent
    /// result (an engine bug) throws std::runtime_error carrying the
    /// counterexample description. With any engine but kSim the sign-off
    /// is exact at every input width.
    bool self_check = false;
};

/// The parameters decompose_network actually runs with: the sift_symmetry
/// tri-state resolved into manager.sift_symmetry, and
/// engine.exact_max_support clamped to kMaxExactSupport. Resolution comes
/// before the cone-cache config blob is built, so requests that resolve
/// alike share cache entries.
[[nodiscard]] DecompFlowParams resolve_flow_params(DecompFlowParams params);

struct DecompFlowResult {
    net::Network network;
    EngineStats engine_stats;
    int supernode_count = 0;
    double seconds = 0.0;
    /// Oracle verdict when DecompFlowParams::self_check was set (always
    /// `equivalent`, or decompose_network would have thrown).
    std::optional<net::EquivalenceResult> equivalence;
};

/// Decompose `input` with the BDS-MAJ engine. The result is functionally
/// equivalent to the input (tests enforce it on every benchmark).
[[nodiscard]] DecompFlowResult decompose_network(const net::Network& input,
                                                 const DecompFlowParams& params = {});

/// Convenience wrappers for the two Table I configurations.
[[nodiscard]] DecompFlowResult run_bdsmaj(const net::Network& input);
[[nodiscard]] DecompFlowResult run_bdspga(const net::Network& input);

}  // namespace bdsmaj::decomp
