// Ablation: the selection sizing factors. The paper fixes k_local = 1.5 and
// k_global = 1.6 "by extensive simulations" (SIV-B); this harness sweeps
// both and reports decomposed node counts and MAJ share on a sub-suite, so
// the choice can be re-derived from data.

#include <cstdio>
#include <string>
#include <vector>

#include "benchgen/suite.hpp"
#include "decomp/flow.hpp"
#include "network/cec.hpp"

int main() {
    using namespace bdsmaj;
    const std::vector<std::string> circuits = {"alu2", "C1355", "f51m",
                                               "4-Op ADD 16 bit", "CLA 64 bit"};
    std::vector<net::Network> inputs;
    for (const auto& name : circuits) {
        inputs.push_back(benchgen::benchmark_by_name(name, /*quick=*/true));
    }

    std::printf("Ablation: sizing factors k_local / k_global (paper: 1.5 / 1.6)\n");
    std::printf("%-8s %-8s | %10s %10s %9s | %s\n", "k_local", "k_global",
                "total", "MAJ", "share", "equivalent");
    std::printf("%s\n", std::string(70, '-').c_str());

    bool all_ok = true;
    for (const double k_local : {1.0, 1.25, 1.5, 1.75, 2.0}) {
        for (const double k_global : {1.2, 1.6, 2.0}) {
            long total = 0, maj_nodes = 0;
            int equivalent = 0;
            for (const net::Network& input : inputs) {
                decomp::DecompFlowParams params;
                params.engine.maj.k_local = k_local;
                params.engine.maj.k_global = k_global;
                const decomp::DecompFlowResult r =
                    decomp::decompose_network(input, params);
                const net::NetworkStats s = r.network.stats();
                total += s.total();
                maj_nodes += s.maj_nodes;
                if (net::check_equivalent(input, r.network).equivalent) {
                    ++equivalent;
                }
            }
            all_ok = all_ok && equivalent == static_cast<int>(inputs.size());
            std::printf("%-8.2f %-8.2f | %10ld %10ld %8.1f%% | %d/%zu\n", k_local,
                        k_global, total, maj_nodes,
                        100.0 * static_cast<double>(maj_nodes) /
                            static_cast<double>(total),
                        equivalent, inputs.size());
        }
    }
    std::printf("correctness is invariant across the sweep: %s\n",
                all_ok ? "yes" : "NO");
    return all_ok ? 0 : 1;
}
