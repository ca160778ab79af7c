// Ablation: the (γ)-phase iteration limit. The paper fixes the cyclic
// balancing at 5 iterations (SIV-B); this harness sweeps 0..8 and reports
// node counts and runtime so the diminishing-returns point is visible.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "benchgen/suite.hpp"
#include "decomp/flow.hpp"
#include "network/cec.hpp"

int main() {
    using namespace bdsmaj;
    const std::vector<std::string> circuits = {"alu2", "C1355", "Wallace 16 bit",
                                               "4-Op ADD 16 bit"};
    std::vector<net::Network> inputs;
    for (const auto& name : circuits) {
        inputs.push_back(benchgen::benchmark_by_name(name, /*quick=*/true));
    }

    std::printf("Ablation: balancing iteration limit (paper: 5)\n");
    std::printf("%-6s | %10s %10s | %8s | %s\n", "iters", "total", "MAJ", "sec",
                "equivalent");
    std::printf("%s\n", std::string(58, '-').c_str());

    bool all_ok = true;
    for (const int iterations : {0, 1, 2, 3, 5, 8}) {
        long total = 0, maj_nodes = 0;
        int equivalent = 0;
        const auto start = std::chrono::steady_clock::now();
        for (const net::Network& input : inputs) {
            decomp::DecompFlowParams params;
            params.engine.maj.max_iterations = iterations;
            const decomp::DecompFlowResult r = decomp::decompose_network(input, params);
            const net::NetworkStats s = r.network.stats();
            total += s.total();
            maj_nodes += s.maj_nodes;
            if (net::check_equivalent(input, r.network, net::CecParams{.sim_rounds = 16})
                    .equivalent) {
                ++equivalent;
            }
        }
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                .count();
        all_ok = all_ok && equivalent == static_cast<int>(inputs.size());
        std::printf("%-6d | %10ld %10ld | %8.2f | %d/%zu\n", iterations, total,
                    maj_nodes, seconds, equivalent, inputs.size());
    }
    std::printf("correctness is invariant across the sweep: %s\n",
                all_ok ? "yes" : "NO");
    return all_ok ? 0 : 1;
}
