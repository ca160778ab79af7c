// Design Compiler proxy (see docs/architecture.md, "Substitutions").
//
// The paper compares against Synopsys DC with `compile -area -effort high`.
// DC is closed source; the proxy models a strong conventional flow by
// mapping four candidates and keeping the best mapped area (the first on
// a tie) — the multi-recipe, area-effort behaviour commercial tools
// exhibit — while staying majority-blind like DC's 2013 mapper:
//   1. the AIG script, resyn2 once (the ABC flow's optimization, with
//      XOR/MUX recovery on);
//   2. the AIG script with resyn2 twice;
//   3. the BDD decomposition flow without majority support, then the AIG
//      script with resyn2 once;
//   4. that decomposition alone.
// resyn2's zero-gain perturbation is its own `rewrite -z` step
// (aig/rewrite.cpp); the proxy adds none.

#include <chrono>

#include "aig/convert.hpp"
#include "flows/flows.hpp"

namespace bdsmaj::flows {

SynthesisResult flow_dc(const net::Network& input) {
    const auto start = std::chrono::steady_clock::now();
    SynthesisResult result;
    result.flow_name = "DC";

    std::vector<net::Network> candidates;
    candidates.push_back(aig::resyn2_network(input, 1));
    candidates.push_back(aig::resyn2_network(input, 2));
    {
        decomp::DecompFlowParams params;
        params.engine.use_majority = false;
        decomp::DecompFlowResult d = decomp::decompose_network(input, params);
        candidates.push_back(aig::resyn2_network(d.network, 1));
        candidates.push_back(std::move(d.network));
    }

    bool first = true;
    for (net::Network& candidate : candidates) {
        mapping::MappedResult mapped =
            mapping::map_network(candidate, default_library());
        if (first || mapped.area_um2 < result.mapped.area_um2) {
            result.mapped = std::move(mapped);
            result.optimized = std::move(candidate);
            first = false;
        }
    }
    result.optimized_stats = result.optimized.stats();
    result.optimize_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return result;
}

}  // namespace bdsmaj::flows
