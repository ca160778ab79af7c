// Design Compiler proxy (see docs/architecture.md, "Substitutions").
//
// The paper compares against Synopsys DC with `compile -area -effort high`.
// DC is closed source; the proxy models a strong conventional flow by
// running several unrelated recipes at higher effort and keeping the best
// mapped area — the multi-recipe, area-effort behaviour commercial tools
// exhibit — while staying majority-blind like DC's 2013 mapper:
//   1. an extended AIG script (resyn2 twice, extra zero-gain perturbation);
//   2. the BDD decomposition flow without majority support;
//   3. the AIG script applied on top of recipe 2's result.

#include <chrono>

#include "aig/convert.hpp"
#include "aig/opt.hpp"
#include "flows/flows.hpp"
#include "network/cleanup.hpp"

namespace bdsmaj::flows {

namespace {

net::Network run_aig_script(const net::Network& input, int repeats) {
    aig::Aig a = aig::network_to_aig(net::cleanup(input));
    for (int i = 0; i < repeats; ++i) a = aig::resyn2(a);
    std::vector<std::string> in_names, out_names;
    for (const net::NodeId id : input.inputs()) in_names.push_back(input.node(id).name);
    for (const net::OutputPort& po : input.outputs()) out_names.push_back(po.name);
    return net::cleanup(aig::aig_to_network(a, in_names, out_names));
}

}  // namespace

SynthesisResult flow_dc(const net::Network& input) {
    const auto start = std::chrono::steady_clock::now();
    SynthesisResult result;
    result.flow_name = "DC";

    std::vector<net::Network> candidates;
    candidates.push_back(run_aig_script(input, 1));
    candidates.push_back(run_aig_script(input, 2));
    {
        decomp::DecompFlowParams params;
        params.engine.use_majority = false;
        decomp::DecompFlowResult d = decomp::decompose_network(input, params);
        candidates.push_back(run_aig_script(d.network, 1));
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
