#pragma once
// The four synthesis flows compared in Table II, each from input network to
// mapped netlist over the same CMOS 22 nm cell library:
//
//   * BDS-MAJ : partition -> BDD decomposition with majority (this paper)
//               -> direct MAJ/XOR/XNOR cell assignment + NAND/NOR/INV cover
//   * BDS-PGA : same engine without the majority stage (Table I baseline)
//   * ABC     : AIG + resyn2-style script + motif-detecting mapper
//   * DC      : commercial-style proxy — best-of multiple recipes at high
//               area effort (see docs/architecture.md, "Substitutions")

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "decomp/flow.hpp"
#include "mapping/mapper.hpp"
#include "network/cec.hpp"
#include "network/network.hpp"

namespace bdsmaj::flows {

/// Per-run knobs shared by every entry point — the flow functions below,
/// SynthesisService jobs (SynthesisJobParams extends this struct) and the
/// CLI. from_decomposition (flows.cpp) is the one place they become
/// decomp::DecompFlowParams.
struct FlowOptions {
    /// Ignored: every flow and run_suite run on the calling thread; run
    /// circuits concurrently as SynthesisService jobs. Kept only so
    /// existing callers that still assign it keep compiling.
    int jobs = 1;
    /// Decomposition strategy preset for the BDS flows (see
    /// decomp::presets()); "paper" reproduces the published ladder
    /// byte-for-byte. ABC/DC ignore it.
    std::string preset = "paper";
    /// Per-supernode BDD manager tuning (reordering budget: sift growth
    /// bound, converging sift). Its sift_symmetry is ignored: the preset
    /// decides (DecompFlowParams::manager). Defaults keep the preset
    /// fingerprints; ABC/DC ignore it.
    bdd::ManagerParams manager{};
    /// Majority decomposition tuning (EngineParams::maj: balancing
    /// iterations, k-local/k-global sizing factors of paper SIV-B).
    /// Defaults are the paper's; ABC/DC ignore it.
    decomp::MajDecompParams maj{};
    /// Sift each supernode's local BDD before decomposing
    /// (DecompFlowParams::reorder). ABC/DC ignore it.
    bool reorder = true;
    /// Widest cone the exact strategy of the BDS flows serves
    /// (EngineParams::exact_max_support); values above 4 act as 4, and a
    /// negative value keeps the engine default (also 4). ABC/DC ignore it.
    int exact_max_support = decomp::kMaxExactSupport;
    /// Consult the process-wide canonical cone cache in the BDS flows
    /// (DecompFlowParams::cone_cache): repeated cones — within a circuit,
    /// across circuits, across jobs — replay cached GateTapes instead of
    /// re-decomposing. Results are byte-identical either way; the budget
    /// knob lives on decomp::ConeCache::instance(). ABC/DC ignore it.
    bool cone_cache = true;
    /// Absolute hard deadline (DecompFlowParams::deadline semantics):
    /// checked at the per-supernode checkpoints of the BDS flows, before
    /// the ABC and DC flows in run_flow and between circuits in run_suite;
    /// once passed, decomp::DeadlineExceeded propagates out. The ABC/DC
    /// passes themselves are not interruptible. Unset = no deadline.
    std::optional<std::chrono::steady_clock::time_point> deadline;
    /// Absolute soft budget (DecompFlowParams::soft_budget): once passed,
    /// the BDS flows degrade remaining supernodes down the fixed
    /// paper -> shannon ladder instead of failing;
    /// EngineStats::degraded_supernodes counts them.
    std::optional<std::chrono::steady_clock::time_point> soft_budget;
    /// Ignored: the sign-off has one policy (see verify_synthesis_result).
    /// Kept only so existing callers that still assign it keep compiling.
    net::EquivEngine oracle = net::EquivEngine::kAuto;
    /// Verify each flow's optimized network AND mapped netlist against the
    /// input before returning (all four flows, not just BDS). The mapped
    /// verdict lands in SynthesisResult::equivalence; an inequivalent
    /// result throws std::runtime_error with the counterexample. Exact at
    /// any input width. The sign-off obeys `deadline` before each global
    /// check.
    bool verify = false;
};

/// What the sign-off did: how many of its global checks each engine
/// proved, the SAT oracle's counters summed over them, what the mapping
/// certificate proved, and the time of each stage. All zero when no
/// sign-off ran.
struct SignOffStats {
    int bdd_checks = 0;
    int sat_checks = 0;
    net::CecStats cec;
    /// Optimized-network nodes the mapping certificate proved.
    int certified_nodes = 0;
    /// Certificates that were inconclusive, so the mapped netlist went to
    /// the global check instead.
    int certificate_fallbacks = 0;
    /// Wall time of the input <-> optimized check.
    double optimized_check_seconds = 0.0;
    /// Wall time of the mapped check: the certificate plus any global
    /// fallback.
    double mapped_check_seconds = 0.0;
};

struct SynthesisResult {
    std::string flow_name;
    net::Network optimized;           ///< technology-independent result
    net::NetworkStats optimized_stats;
    mapping::MappedResult mapped;
    double optimize_seconds = 0.0;
    decomp::EngineStats engine_stats;  ///< BDS flows only
    /// Oracle verdict for input vs mapped netlist when FlowOptions::verify
    /// was set (always `equivalent`, or the flow would have thrown). When
    /// the mapping certificate proved the netlist, this is the verdict of
    /// the input <-> optimized check it extends. `verify_seconds` is the
    /// total sign-off time (both checks).
    std::optional<net::EquivalenceResult> equivalence;
    double verify_seconds = 0.0;
    SignOffStats signoff;  ///< both checks of the sign-off
};

/// The library shared by all flows (paper SV-B1).
[[nodiscard]] const mapping::CellLibrary& default_library();

/// The sign-off behind FlowOptions::verify, exposed for callers that run
/// flow_abc/flow_dc directly. It proves `result.optimized` against `input`
/// with net::check_equivalent, then extends that proof to
/// `result.mapped.netlist` with the local mapping certificate
/// (mapping/certify.hpp), and runs a second global check of the mapped
/// netlist only if the certificate is inconclusive. It throws
/// std::runtime_error carrying the counterexample on mismatch, and records
/// the mapped verdict, the sign-off wall time and its SignOffStats in the
/// result. Before each global check it stops with decomp::DeadlineExceeded
/// if `options.deadline` has passed, so a result is never returned
/// unverified.
void verify_synthesis_result(const net::Network& input, SynthesisResult& result,
                             const FlowOptions& options = {});

/// The BDS flows honor every FlowOptions knob; the result depends only on
/// the preset and the engine tuning (manager, maj, reorder,
/// exact_max_support). ABC and DC are serial and take no options.
[[nodiscard]] SynthesisResult flow_bdsmaj(const net::Network& input,
                                          const FlowOptions& options = {});
[[nodiscard]] SynthesisResult flow_bdspga(const net::Network& input,
                                          const FlowOptions& options = {});
[[nodiscard]] SynthesisResult flow_abc(const net::Network& input);
[[nodiscard]] SynthesisResult flow_dc(const net::Network& input);

/// All four, in Table II column order, one after another on the calling
/// thread, each through run_flow.
[[nodiscard]] std::vector<SynthesisResult> run_all_flows(const net::Network& input,
                                                         const FlowOptions& options = {});

/// One flow by name — "bdsmaj", "bdspga", "abc" or "dc" — or "all" for
/// run_all_flows. Every flow, ABC and DC included, is signed off when
/// `options.verify` is set. An unknown name throws std::invalid_argument.
/// The CLI and the service dispatch through here.
[[nodiscard]] std::vector<SynthesisResult> run_flow(const net::Network& input,
                                                    const std::string& flow,
                                                    const FlowOptions& options = {});

/// Batched suite synthesis: run_flow(inputs[i], flow) for every input, in
/// input order on the calling thread. The hard deadline is checked before
/// each circuit. This is what the Table I/II sweeps,
/// the bench harness and SynthesisService jobs (flows/service.hpp) run;
/// to synthesize circuits concurrently, submit them as separate service
/// jobs.
[[nodiscard]] std::vector<std::vector<SynthesisResult>> run_suite(
    const std::vector<net::Network>& inputs, const FlowOptions& options = {},
    const std::string& flow = "all");

}  // namespace bdsmaj::flows
