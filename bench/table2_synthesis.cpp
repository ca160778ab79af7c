// Regenerates Table II: mapped area (um^2), gate count and critical-path
// delay (ns) for the four flows (BDS-MAJ / BDS-PGA / ABC / DC) on the
// 17-circuit suite at CMOS 22 nm, plus the paper's headline aggregates
// (area/delay advantages vs each comparator and the ~1.4 ms/gate runtime).
//
// Set BDSMAJ_QUICK=1 for reduced bit-widths.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "benchgen/suite.hpp"
#include "flows/flows.hpp"
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
    std::printf("Table II reproduction: synthesis at CMOS 22nm%s\n",
                quick ? " (quick widths)" : "");
    std::printf("%-18s || %8s %6s %6s || %8s %6s %6s || %8s %6s %6s || %8s %6s %6s\n",
                "benchmark", "MAJ-A", "GC", "D", "PGA-A", "GC", "D", "ABC-A", "GC",
                "D", "DC-A", "GC", "D");
    std::printf("%s\n", std::string(122, '-').c_str());

    struct Acc {
        double area = 0, delay = 0;
        long gates = 0;
    } maj_acc, pga_acc, abc_acc, dc_acc;
    double opt_seconds = 0;
    int verified = 0;

    for (const auto& row : bench::kTable2) {
        const net::Network input =
            benchgen::benchmark_by_name(std::string(row.name), quick);
        const auto results = flows::run_all_flows(input);
        const auto& maj = results[0];
        const auto& pga = results[1];
        const auto& abc = results[2];
        const auto& dc = results[3];
        bool all_ok = true;
        for (const auto& r : results) {
            if (!net::check_equivalent(input, r.mapped.netlist, net::CecParams{.sim_rounds = 32})
                     .equivalent) {
                std::printf("!! %s: %s netlist NOT equivalent\n",
                            std::string(row.name).c_str(), r.flow_name.c_str());
                all_ok = false;
            }
        }
        if (all_ok) ++verified;
        std::printf(
            "%-18s || %8.2f %6d %6.3f || %8.2f %6d %6.3f || %8.2f %6d %6.3f || "
            "%8.2f %6d %6.3f\n",
            std::string(row.name).c_str(), maj.mapped.area_um2, maj.mapped.gate_count,
            maj.mapped.delay_ns, pga.mapped.area_um2, pga.mapped.gate_count,
            pga.mapped.delay_ns, abc.mapped.area_um2, abc.mapped.gate_count,
            abc.mapped.delay_ns, dc.mapped.area_um2, dc.mapped.gate_count,
            dc.mapped.delay_ns);
        std::printf(
            "  paper:           || %8.2f %6d %6.3f || %8.2f %6d %6.3f || %8.2f %6d "
            "%6.3f || %8.2f %6d %6.3f\n",
            row.maj_area, row.maj_gc, row.maj_delay, row.pga_area, row.pga_gc,
            row.pga_delay, row.abc_area, row.abc_gc, row.abc_delay, row.dc_area,
            row.dc_gc, row.dc_delay);
        maj_acc.area += maj.mapped.area_um2;
        maj_acc.gates += maj.mapped.gate_count;
        maj_acc.delay += maj.mapped.delay_ns;
        pga_acc.area += pga.mapped.area_um2;
        pga_acc.gates += pga.mapped.gate_count;
        pga_acc.delay += pga.mapped.delay_ns;
        abc_acc.area += abc.mapped.area_um2;
        abc_acc.gates += abc.mapped.gate_count;
        abc_acc.delay += abc.mapped.delay_ns;
        dc_acc.area += dc.mapped.area_um2;
        dc_acc.gates += dc.mapped.gate_count;
        dc_acc.delay += dc.mapped.delay_ns;
        opt_seconds += maj.optimize_seconds;
    }

    const auto pct = [](double ours, double theirs) {
        return 100.0 * (1.0 - ours / theirs);
    };
    std::printf("%s\n", std::string(122, '-').c_str());
    std::printf("equivalence-verified benchmarks: %d / 17\n", verified);
    std::printf("area  advantage of BDS-MAJ: vs BDS %.1f%% (paper 26.4%%) | vs ABC "
                "%.1f%% (paper 28.8%%) | vs DC %.1f%% (paper 6.0%%)\n",
                pct(maj_acc.area, pga_acc.area), pct(maj_acc.area, abc_acc.area),
                pct(maj_acc.area, dc_acc.area));
    std::printf("delay advantage of BDS-MAJ: vs BDS %.1f%% (paper 20.9%%) | vs ABC "
                "%.1f%% (paper 12.8%%) | vs DC %.1f%% (paper 7.8%%)\n",
                pct(maj_acc.delay, pga_acc.delay), pct(maj_acc.delay, abc_acc.delay),
                pct(maj_acc.delay, dc_acc.delay));
    std::printf("BDS-MAJ optimization runtime: %.2f ms per final gate (paper ~1.4 "
                "ms/gate)\n",
                1000.0 * opt_seconds / static_cast<double>(maj_acc.gates));
    return verified == 17 ? 0 : 1;
}
