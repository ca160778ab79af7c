#pragma once
// The complete BDS-MAJ logic decomposition flow (paper Fig. 3):
//   input network -> partition into supernodes -> per-supernode local BDD
//   (with sifting reorder) -> dominator/majority-driven decomposition ->
//   factoring trees with on-line sharing -> cleaned decomposed network.
//
// `use_majority = false` gives the BDS-PGA baseline of Table I.
//
// One circuit runs on one thread: every supernode gets the flow's local
// manager, reset to a fresh state, and writes its factoring tree to a
// private GateTape; tapes replay in supernode order into the flow's
// hash-consing builder, which does the on-line sharing (see
// docs/performance.md, "Deterministic replay"). Parallelism lives above
// this layer, across the jobs of a flows::SynthesisService.

#include <chrono>
#include <optional>
#include <stdexcept>

#include "decomp/engine.hpp"
#include "decomp/partition.hpp"
#include "network/network.hpp"

namespace bdsmaj::decomp {

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
    /// reordering budget (sift_max_growth / sift_converge; see
    /// bdd::ManagerParams). Defaults reproduce the paper presets
    /// byte-for-byte; sift_converge trades decomposition time for smaller
    /// local BDDs and may change (equivalent) output structure.
    /// manager.sift_symmetry is not read from here: decompose_network sets
    /// it from the preset (Preset::sift_symmetry; off for `paper` and
    /// `shannon`, on for `symmetry`/`exact-aggressive`/`best-cost`),
    /// before the cone-cache config blob is computed.
    bdd::ManagerParams manager;
    /// Sift each supernode's local BDD before decomposing (paper SIV-B).
    bool reorder = true;
    /// Consult the process-wide canonical cone cache
    /// (decomp/cone_cache.hpp): a supernode whose canonical cone signature
    /// was decomposed before — by this run, an earlier run, or a
    /// concurrent job — replays the cached GateTape instead of building,
    /// sifting and decomposing its local BDD. The output network is
    /// byte-identical either way (the cache key captures everything the
    /// emitted tape depends on); only the cone_cache_* telemetry differs.
    bool cone_cache = true;
    /// Ignored: decompose_network always runs on the calling thread. Kept
    /// only so existing callers that still assign it keep compiling.
    int jobs = 1;
    /// Absolute hard deadline, checked at each per-supernode checkpoint —
    /// before decomposing another supernode; once passed,
    /// decompose_network throws DeadlineExceeded. Unset = no deadline (and
    /// no clock reads).
    std::optional<std::chrono::steady_clock::time_point> deadline;
    /// Absolute soft budget. Once passed, remaining supernodes are
    /// decomposed on the degrade ladder instead of the requested
    /// parameters — the flow finishes with a valid (equivalent, but
    /// cheaper-effort) network rather than dying. The ladder is fixed:
    /// the `paper` preset with clamped sift effort, then terminal
    /// `shannon` — plain cofactor expansion with reordering and resource
    /// guards off, which always terminates. A resource-guard trip
    /// (manager.max_live_nodes / manager.sift_max_swaps) sends its cone
    /// down the same ladder. Which supernodes land on the ladder is
    /// timing-dependent; EngineStats::degraded_supernodes counts them.
    /// Unset = no budget (and no clock reads).
    std::optional<std::chrono::steady_clock::time_point> soft_budget;
};

/// The parameters decompose_network actually runs with:
/// manager.sift_symmetry set from the preset, and engine.exact_max_support
/// clamped to kMaxExactSupport. Resolution comes before the cone-cache
/// config blob is built, so requests that resolve alike share cache
/// entries. Throws std::invalid_argument on an unknown preset, whether or
/// not the network has anything to decompose.
[[nodiscard]] DecompFlowParams resolve_flow_params(DecompFlowParams params);

struct DecompFlowResult {
    net::Network network;
    EngineStats engine_stats;
    int supernode_count = 0;
    double seconds = 0.0;
};

/// Decompose `input` with the BDS-MAJ engine. The result is functionally
/// equivalent to the input (tests enforce it on every benchmark).
[[nodiscard]] DecompFlowResult decompose_network(const net::Network& input,
                                                 const DecompFlowParams& params = {});

/// Convenience wrappers for the two Table I configurations.
[[nodiscard]] DecompFlowResult run_bdsmaj(const net::Network& input);
[[nodiscard]] DecompFlowResult run_bdspga(const net::Network& input);

}  // namespace bdsmaj::decomp
