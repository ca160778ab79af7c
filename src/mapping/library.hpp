#pragma once
// Standard-cell library model (paper SV-B1): MAJ-3, XOR-2, XNOR-2, NAND-2,
// NOR-2 and INV characterized for a CMOS 22 nm technology node.
//
// Substitution note (see docs/architecture.md, "Substitutions"): the
// paper characterizes its cells with PTM 22 nm SPICE models; we use a
// static linear timing model
//     delay(cell, fanout) = intrinsic + slope * fanout
// with constants scaled from transistor counts at 22 nm. Relative
// area/delay ratios between cell types follow transistor counts, which is
// what drives the paper's comparisons.

#include <string>
#include <vector>

#include "network/network.hpp"

namespace bdsmaj::mapping {

struct Cell {
    std::string name;
    net::GateKind kind = net::GateKind::kNot;
    int transistors = 0;
    double area_um2 = 0.0;
    double intrinsic_ns = 0.0;  ///< unloaded pin-to-pin delay
    double slope_ns = 0.0;      ///< additional delay per fanout
};

class CellLibrary {
public:
    /// The paper's six-cell library at the 22 nm node.
    [[nodiscard]] static CellLibrary cmos22nm();

    /// Cell implementing a mapped gate kind; throws std::out_of_range for
    /// kinds that are not library cells.
    [[nodiscard]] const Cell& cell_for(net::GateKind kind) const;
    [[nodiscard]] bool has_cell_for(net::GateKind kind) const;
    [[nodiscard]] const std::vector<Cell>& cells() const noexcept { return cells_; }

    void add_cell(Cell cell);

private:
    std::vector<Cell> cells_;
};

}  // namespace bdsmaj::mapping
