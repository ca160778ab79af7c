// Library-sensitivity scenario: the value of majority decomposition
// depends on how cheap the MAJ3 cell is. This example remaps the same
// BDS-MAJ-decomposed divider under libraries with different MAJ3 costs
// (e.g. an MTJ/spintronic-style library where majority is the native gate
// vs. a CMOS library where it is expensive), using the public CellLibrary
// API.

#include <cstdio>

#include "benchgen/arith.hpp"
#include "decomp/flow.hpp"
#include "mapping/mapper.hpp"
#include "network/cec.hpp"

namespace {

bdsmaj::mapping::CellLibrary scaled_library(double maj_area_factor,
                                            double maj_delay_factor) {
    using bdsmaj::mapping::Cell;
    using bdsmaj::net::GateKind;
    bdsmaj::mapping::CellLibrary lib = bdsmaj::mapping::CellLibrary::cmos22nm();
    bdsmaj::mapping::CellLibrary out;
    for (Cell cell : lib.cells()) {
        if (cell.kind == GateKind::kMaj) {
            cell.area_um2 *= maj_area_factor;
            cell.intrinsic_ns *= maj_delay_factor;
        }
        out.add_cell(cell);
    }
    return out;
}

}  // namespace

int main() {
    using namespace bdsmaj;
    const net::Network input = benchgen::make_restoring_divider(8);
    const decomp::DecompFlowResult d = decomp::run_bdsmaj(input);
    std::printf("8-bit divider decomposed once with BDS-MAJ: %d nodes, %d MAJ\n\n",
                d.network.stats().total(), d.network.stats().maj_nodes);

    std::printf("%-28s | %9s %6s %8s\n", "library", "area um2", "cells", "delay ns");
    std::printf("%s\n", std::string(58, '-').c_str());
    const struct {
        const char* name;
        double area_factor, delay_factor;
    } variants[] = {
        {"CMOS 22nm (paper)", 1.0, 1.0},
        {"cheap MAJ (emerging tech)", 0.4, 0.6},
        {"expensive MAJ (2x)", 2.0, 1.5},
    };
    for (const auto& v : variants) {
        const mapping::CellLibrary lib = scaled_library(v.area_factor, v.delay_factor);
        const mapping::MappedResult r = mapping::map_network(d.network, lib);
        const bool ok = net::check_equivalent(input, r.netlist).equivalent;
        std::printf("%-28s | %9.2f %6d %8.3f%s\n", v.name, r.area_um2, r.gate_count,
                    r.delay_ns, ok ? "" : "  (NOT EQUIVALENT!)");
    }
    std::printf("\nThe decomposition is technology independent; only the mapped\n"
                "cost moves. With a native-majority technology the BDS-MAJ\n"
                "advantage widens — the MIG line of work this paper seeded.\n");
    return 0;
}
