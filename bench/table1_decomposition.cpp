// Regenerates Table I: decomposition node counts (AND/OR/XOR/XNOR/MAJ,
// total) and runtime, BDS-MAJ vs BDS-PGA, over the 17-circuit suite.
// Prints measured rows next to the paper's reference values and the two
// headline aggregates: ~29.1% fewer nodes and ~9.8% MAJ share.
//
// Set BDSMAJ_QUICK=1 to run reduced bit-widths for the heavy arithmetic
// circuits.

#include <cstdio>
#include <cstdlib>

#include "benchgen/suite.hpp"
#include "decomp/flow.hpp"
#include "network/cec.hpp"
#include "paper_data.hpp"

namespace bdsmaj::bench {

bool quick_mode() {
    const char* env = std::getenv("BDSMAJ_QUICK");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

}  // namespace bdsmaj::bench

int main() {
    using namespace bdsmaj;
    const bool quick = bench::quick_mode();
    std::printf("Table I reproduction: decomposition, BDS-MAJ vs BDS-PGA%s\n",
                quick ? " (quick widths)" : "");
    std::printf(
        "%-18s | %5s %5s %5s %5s %5s %6s %7s | %6s %7s | %7s %7s\n", "benchmark",
        "AND", "OR", "XOR", "XNOR", "MAJ", "total", "sec", "pga", "pga-sec",
        "paperMJ", "paperPG");
    std::printf("%s\n", std::string(118, '-').c_str());

    double sum_maj_total = 0, sum_pga_total = 0, sum_maj_nodes = 0;
    double paper_maj_total = 0, paper_pga_total = 0;
    double sum_maj_sec = 0, sum_pga_sec = 0;
    int verified = 0;

    for (const auto& row : bench::kTable1) {
        const net::Network input =
            benchgen::benchmark_by_name(std::string(row.name), quick);
        const decomp::DecompFlowResult maj = decomp::run_bdsmaj(input);
        const decomp::DecompFlowResult pga = decomp::run_bdspga(input);
        // Sign-off: both decompositions must be functionally equivalent.
        const net::CecParams cec{.sim_rounds = 32};
        if (net::check_equivalent(input, maj.network, cec).equivalent &&
            net::check_equivalent(input, pga.network, cec).equivalent) {
            ++verified;
        } else {
            std::printf("!! equivalence FAILED on %s\n", std::string(row.name).c_str());
        }
        const net::NetworkStats ms = maj.network.stats();
        const net::NetworkStats ps = pga.network.stats();
        std::printf(
            "%-18s | %5d %5d %5d %5d %5d %6d %7.2f | %6d %7.2f | %7d %7d\n",
            std::string(row.name).c_str(), ms.and_nodes, ms.or_nodes, ms.xor_nodes,
            ms.xnor_nodes, ms.maj_nodes, ms.total(), maj.seconds, ps.total(),
            pga.seconds, row.maj_total, row.pga_total);
        sum_maj_total += ms.total();
        sum_pga_total += ps.total();
        sum_maj_nodes += ms.maj_nodes;
        sum_maj_sec += maj.seconds;
        sum_pga_sec += pga.seconds;
        paper_maj_total += row.maj_total;
        paper_pga_total += row.pga_total;
    }

    const double reduction = 100.0 * (1.0 - sum_maj_total / sum_pga_total);
    const double maj_share = 100.0 * sum_maj_nodes / sum_maj_total;
    const double paper_reduction = 100.0 * (1.0 - paper_maj_total / paper_pga_total);
    std::printf("%s\n", std::string(118, '-').c_str());
    std::printf("equivalence-verified benchmarks : %d / 17\n", verified);
    std::printf("node reduction BDS-MAJ vs BDS-PGA: measured %.1f%%  (paper avg 29.1%%, "
                "paper totals ratio %.1f%%)\n",
                reduction, paper_reduction);
    std::printf("MAJ share of BDS-MAJ nodes       : measured %.1f%%  (paper 9.8%%)\n",
                maj_share);
    std::printf("total runtime BDS-MAJ %.2fs vs BDS-PGA %.2fs (paper: ~equal, +4.6%%)\n",
                sum_maj_sec, sum_pga_sec);
    return verified == 17 ? 0 : 1;
}
