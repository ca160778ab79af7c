// Quickstart: read a BLIF, optimize with BDS-MAJ, map to the CMOS 22nm
// library, verify, and print the result.
//
//   ./quickstart [file.blif]
//
// Without an argument a small built-in full-adder + comparator circuit is
// used.

#include <cstdio>
#include <string>

#include "flows/flows.hpp"
#include "network/blif.hpp"
#include "network/cec.hpp"

namespace {

constexpr const char* kDemoBlif = R"(
.model demo
.inputs a0 a1 b0 b1 cin
.outputs s0 s1 cout eq
.names a0 b0 cin s0
100 1
010 1
001 1
111 1
.names a0 b0 cin c1
11- 1
1-1 1
-11 1
.names a1 b1 c1 s1
100 1
010 1
001 1
111 1
.names a1 b1 c1 cout
11- 1
1-1 1
-11 1
.names a0 b0 e0
00 1
11 1
.names a1 b1 e1
00 1
11 1
.names e0 e1 eq
11 1
.end
)";

}  // namespace

int main(int argc, char** argv) {
    using namespace bdsmaj;

    // 1. Load a network.
    const net::Network input = argc > 1 ? net::read_blif_file(argv[1])
                                        : net::parse_blif(kDemoBlif);
    const net::NetworkStats in_stats = input.stats();
    std::printf("input  '%s': %d PIs, %d POs, %d logic nodes\n",
                input.model_name().c_str(), in_stats.inputs, in_stats.outputs,
                in_stats.total());

    // 2. Run the BDS-MAJ synthesis flow (decompose + map).
    const flows::SynthesisResult result = flows::flow_bdsmaj(input);
    const net::NetworkStats s = result.optimized_stats;
    std::printf("decomposed: AND=%d OR=%d XOR=%d XNOR=%d MAJ=%d  (total %d)\n",
                s.and_nodes, s.or_nodes, s.xor_nodes, s.xnor_nodes, s.maj_nodes,
                s.total());
    std::printf("mapped    : %d cells, %.2f um^2, %.3f ns critical path\n",
                result.mapped.gate_count, result.mapped.area_um2,
                result.mapped.delay_ns);

    // 3. Verify: the mapped netlist must be functionally identical.
    const net::EquivalenceResult eq =
        net::check_equivalent(input, result.mapped.netlist);
    std::printf("equivalence check: %s\n", eq.equivalent ? "PASS" : eq.reason.c_str());

    // 4. Write the optimized network back as BLIF.
    const std::string out_path = "quickstart_out.blif";
    net::write_blif_file(result.optimized, out_path);
    std::printf("optimized network written to %s\n", out_path.c_str());
    return eq.equivalent ? 0 : 1;
}
