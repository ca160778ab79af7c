// Ablation: m-dominator candidate selection. Section III-F notes the
// candidate list is O(N) but "can be adjusted on the fly specifying tighter
// selection constraints about the fan-in of m-dominators"; this harness
// sweeps the fan-in thresholds of condition (ii) and the candidate cap, and
// reports quality/runtime.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "benchgen/suite.hpp"
#include "decomp/flow.hpp"
#include "mdom_sweep.hpp"
#include "network/cec.hpp"

int main() {
    using namespace bdsmaj;
    std::vector<net::Network> inputs;
    for (const auto& name : bench::mdom_sweep_circuits()) {
        inputs.push_back(benchgen::benchmark_by_name(name, /*quick=*/true));
    }

    std::printf("Ablation: m-dominator selection constraints\n");
    std::printf("%-10s %-10s %-6s | %10s %10s | %8s | %s\n", "then-fan", "else-fan",
                "cap", "total", "MAJ", "sec", "equivalent");
    std::printf("%s\n", std::string(76, '-').c_str());

    bool all_ok = true;
    for (const bench::MdomSweepConfig& cfg : bench::mdom_sweep_configs()) {
        long total = 0, maj_nodes = 0;
        int equivalent = 0;
        // Time the decomposition sweep only; the equivalence oracle is an
        // untimed sign-off (it dominates the wall clock for multiplier
        // benchmarks whose exact-check BDDs are intrinsically exponential).
        std::vector<net::Network> results;
        const auto start = std::chrono::steady_clock::now();
        for (const net::Network& input : inputs) {
            decomp::DecompFlowResult r =
                decomp::decompose_network(input, bench::mdom_sweep_params(cfg));
            const net::NetworkStats s = r.network.stats();
            total += s.total();
            maj_nodes += s.maj_nodes;
            results.push_back(std::move(r.network));
        }
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                .count();
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            if (net::check_equivalent(inputs[i], results[i]).equivalent) {
                ++equivalent;
            }
        }
        all_ok = all_ok && equivalent == static_cast<int>(inputs.size());
        std::printf("%-10u %-10u %-6d | %10ld %10ld | %8.2f | %d/%zu\n",
                    cfg.then_fanin, cfg.else_fanin, cfg.cap, total, maj_nodes,
                    seconds, equivalent, inputs.size());
    }
    std::printf("correctness is invariant across the sweep: %s\n",
                all_ok ? "yes" : "NO");
    return all_ok ? 0 : 1;
}
