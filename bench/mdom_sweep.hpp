#pragma once
// The m-dominator ablation sweep grid (circuits + knob configurations +
// flow-params wiring), shared by the standalone reproduction harness
// (ablation_mdom.cpp), the perf-trajectory harness (bench_main.cpp) and
// the golden test that pins the sweep's outputs
// (tests/integration/golden_test.cpp), so all three run the same sweep.
// The run loops themselves live in each user (they aggregate differently).

#include <cstdint>
#include <string>
#include <vector>

#include "decomp/flow.hpp"

namespace bdsmaj::bench {

struct MdomSweepConfig {
    std::uint32_t then_fanin;
    std::uint32_t else_fanin;
    int cap;
};

/// Flow parameters of one sweep point — the single source of truth for
/// how the grid knobs map onto the engine.
inline decomp::DecompFlowParams mdom_sweep_params(const MdomSweepConfig& cfg) {
    decomp::DecompFlowParams params;
    params.engine.maj.min_then_fanin = cfg.then_fanin;
    params.engine.maj.min_else_fanin = cfg.else_fanin;
    params.engine.maj.max_candidates = cfg.cap;
    return params;
}

/// Circuits of the sweep, by Table I row label (quick widths).
inline std::vector<std::string> mdom_sweep_circuits() {
    return {"alu2", "C1355", "Wallace 16 bit", "CLA 64 bit"};
}

/// Fan-in threshold / candidate-cap grid of the sweep (SIII-F knobs).
inline std::vector<MdomSweepConfig> mdom_sweep_configs() {
    return {{1, 1, 2}, {1, 1, 4}, {1, 1, 8}, {1, 1, 16}, {2, 1, 8}, {2, 2, 8}};
}

}  // namespace bdsmaj::bench
