// Offline generator of the compiled NPN-4 exact-synthesis table
// (src/decomp/exact_table.inc, included by src/decomp/exact.cpp).
//
// It runs the dynamic program over all 65536 four-input truth tables
// (minimal tree gate count in the {MAJ, AND, OR, XOR, MUX, NOT} grammar,
// Dijkstra by gate count), reconstructs one straight-line program per NPN
// class from the back-pointers, and prints the 222 programs sorted by
// canonical truth table, each with its tree cost.
//
//   gen_exact_table FILE           write the table to FILE
//   gen_exact_table --check FILE   exit 1 if FILE differs from the output
//
// The tier-1 test exact_table.matches_generator runs the --check form
// against the committed file, so the table cannot drift from this program.

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "decomp/exact.hpp"
#include "tt/npn.hpp"

namespace {

using bdsmaj::decomp::ExactGate;
using bdsmaj::decomp::ExactOp;
using bdsmaj::decomp::ExactRef;
using bdsmaj::decomp::ExactStructure;
using bdsmaj::decomp::exact_op_tt;

constexpr auto kLit = bdsmaj::decomp::kExactInputTt;

// ---------------------------------------------------------------------------
// Cost enumeration: minimal tree gate count for every 16-bit function,
// Dijkstra-style by total gate count. NOT is free, so cost is
// complement-invariant; back-pointers record the actual operand functions
// used, and only for the polarity that was directly produced (the other
// polarity reconstructs as the complement).
// ---------------------------------------------------------------------------

struct Back {
    ExactOp op = ExactOp::kAnd;
    bool valid = false;
    std::uint16_t a = 0, b = 0, c = 0;  ///< operand truth tables as used
};

struct CostTable {
    std::array<std::uint8_t, 65536> cost{};
    std::array<Back, 65536> back{};
};

constexpr std::uint8_t kUnreached = 0xff;

CostTable enumerate_costs() {
    CostTable t;
    t.cost.fill(kUnreached);
    int discovered = 0;
    std::vector<std::vector<std::uint16_t>> levels(1);
    const auto seed = [&](std::uint16_t f) {
        if (t.cost[f] != kUnreached) return;
        t.cost[f] = 0;
        t.cost[static_cast<std::uint16_t>(~f)] = 0;
        levels[0].push_back(f);
        discovered += (f == static_cast<std::uint16_t>(~f)) ? 1 : 2;
    };
    seed(0x0000);
    for (const std::uint16_t lit : kLit) seed(lit);

    // Record f (and its free complement) as reachable at cost `c`.
    const auto relax = [&](std::uint16_t f, std::uint8_t c, ExactOp op,
                           std::uint16_t a, std::uint16_t b, std::uint16_t s3) {
        if (t.cost[f] != kUnreached) return;
        t.cost[f] = c;
        t.cost[static_cast<std::uint16_t>(~f)] = c;
        t.back[f] = Back{op, true, a, b, s3};
        levels[c].push_back(f);
        discovered += (f == static_cast<std::uint16_t>(~f)) ? 1 : 2;
    };

    for (std::uint8_t c = 1; discovered < 65536; ++c) {
        assert(c < 16 && "every 4-var function is reachable well before this");
        levels.emplace_back();
        // Partitions (c1, c2) with c1 + c2 == c - 1, cheapest pair
        // products first so the expensive ones mostly early-exit once
        // the table is full.
        std::vector<std::pair<int, int>> parts;
        for (int c1 = 0; c1 <= c - 1; ++c1) parts.emplace_back(c1, c - 1 - c1);
        std::stable_sort(parts.begin(), parts.end(),
                         [&](const auto& x, const auto& y) {
                             return levels[static_cast<std::size_t>(x.first)].size() *
                                        levels[static_cast<std::size_t>(x.second)].size() <
                                    levels[static_cast<std::size_t>(y.first)].size() *
                                        levels[static_cast<std::size_t>(y.second)].size();
                         });
        for (const auto& [c1, c2] : parts) {
            const auto& la = levels[static_cast<std::size_t>(c1)];
            const auto& lb = levels[static_cast<std::size_t>(c2)];
            for (const std::uint16_t ra : la) {
                if (discovered == 65536) break;
                for (const std::uint16_t rb : lb) {
                    if (discovered == 65536) break;
                    // 2-input ops over all operand polarities. XOR needs
                    // only one combo (operand complements flip the
                    // output, which is free); AND's four combos also
                    // cover OR/NAND/NOR via free complements.
                    relax(exact_op_tt(ExactOp::kXor, ra, rb, 0), c, ExactOp::kXor, ra, rb, 0);
                    for (int pa = 0; pa < 2; ++pa) {
                        const auto a = static_cast<std::uint16_t>(pa ? ~ra : ra);
                        for (int pb = 0; pb < 2; ++pb) {
                            const auto b = static_cast<std::uint16_t>(pb ? ~rb : rb);
                            relax(static_cast<std::uint16_t>(a & b), c,
                                  ExactOp::kAnd, a, b, 0);
                            // 3-input gates take one literal operand (the
                            // tractable tree grammar): MAJ(l, a, b) over
                            // both literal polarities, MUX(l, a, b) with
                            // selector polarity covered by the ordered
                            // (ra, rb) iteration.
                            for (const std::uint16_t lit : kLit) {
                                relax(exact_op_tt(ExactOp::kMaj, lit, a, b), c,
                                      ExactOp::kMaj, lit, a, b);
                                relax(exact_op_tt(ExactOp::kMaj,
                                                  static_cast<std::uint16_t>(~lit), a, b),
                                      c, ExactOp::kMaj,
                                      static_cast<std::uint16_t>(~lit), a, b);
                                relax(exact_op_tt(ExactOp::kMux, lit, a, b), c,
                                      ExactOp::kMux, lit, a, b);
                            }
                        }
                    }
                }
            }
        }
    }
    return t;
}

/// Base reference for a cost-0 function: a constant or an input literal
/// (possibly complemented). Returns nullopt for non-base functions.
std::optional<ExactRef> base_ref(std::uint16_t f) {
    if (f == 0x0000) return ExactRef::constant(false);
    if (f == 0xffff) return ExactRef::constant(true);
    for (int i = 0; i < 4; ++i) {
        if (f == kLit[i]) return ExactRef::input(i, false);
        if (f == static_cast<std::uint16_t>(~kLit[i])) return ExactRef::input(i, true);
    }
    return std::nullopt;
}

/// Recursively materialize the program for `f` from the cost table's
/// back-pointers into `gates`, deduplicating shared sub-functions (the
/// tree-optimal costs reconstruct into a DAG when operands repeat).
ExactRef build_ref(std::uint16_t f, const CostTable& t, std::vector<ExactGate>& gates,
                   std::unordered_map<std::uint16_t, ExactRef>& memo) {
    if (const auto base = base_ref(f)) return *base;
    if (const auto it = memo.find(f); it != memo.end()) return it->second;
    if (const auto it = memo.find(static_cast<std::uint16_t>(~f)); it != memo.end()) {
        return !it->second;
    }
    const Back* bk = &t.back[f];
    bool complement = false;
    if (!bk->valid) {
        bk = &t.back[static_cast<std::uint16_t>(~f)];
        complement = true;
        assert(bk->valid && "one polarity always has a back-pointer");
    }
    ExactGate gate;
    gate.op = bk->op;
    gate.a = build_ref(bk->a, t, gates, memo);
    gate.b = build_ref(bk->b, t, gates, memo);
    if (bk->op == ExactOp::kMaj || bk->op == ExactOp::kMux) {
        gate.c = build_ref(bk->c, t, gates, memo);
    }
    gates.push_back(gate);
    const ExactRef ref =
        ExactRef::gate(static_cast<int>(gates.size()) - 1, complement);
    memo.emplace(complement ? static_cast<std::uint16_t>(~f) : f,
                 ExactRef{ref.index, false});
    return ref;
}

// ---------------------------------------------------------------------------
// Table text
// ---------------------------------------------------------------------------

const char* op_name(ExactOp op) {
    switch (op) {
        case ExactOp::kAnd: return "ExactOp::kAnd";
        case ExactOp::kXor: return "ExactOp::kXor";
        case ExactOp::kMaj: return "ExactOp::kMaj";
        case ExactOp::kMux: return "ExactOp::kMux";
    }
    return "?";
}

std::string ref_text(const ExactRef& r) {
    char text[16];
    std::snprintf(text, sizeof(text), "{%d, %s}", r.index, r.complemented ? "true" : "false");
    return text;
}

/// Fail the generation with a message (exit 1).
[[noreturn]] void fail(const std::string& why) {
    std::fprintf(stderr, "gen_exact_table: %s\n", why.c_str());
    std::exit(1);
}

std::string generate() {
    const CostTable t = enumerate_costs();

    // Walk the NPN orbits of all 65536 functions. The class representative
    // is the orbit's minimum, and the table stores one cost per class, which
    // is only sound if the tree cost is the same across the orbit.
    std::vector<std::uint16_t> classes;
    std::vector<bool> seen(0x10000, false);
    for (int f = 0; f < 0x10000; ++f) {
        if (seen[static_cast<std::size_t>(f)]) continue;
        const auto tt = static_cast<std::uint16_t>(f);
        std::uint16_t canonical = tt;
        bdsmaj::tt::NpnTransform npn;
        do {
            for (int neg = 0; neg < 16; ++neg) {
                npn.input_negation = static_cast<std::uint8_t>(neg);
                const std::uint16_t g = bdsmaj::tt::apply_npn(tt, npn);
                for (const std::uint16_t h : {g, static_cast<std::uint16_t>(~g)}) {
                    if (t.cost[h] != t.cost[tt]) {
                        fail("tree cost of " + std::to_string(h) +
                             " differs from its NPN class");
                    }
                    seen[h] = true;
                    canonical = std::min(canonical, h);
                }
            }
        } while (std::next_permutation(npn.permutation.begin(), npn.permutation.end()));
        if (canonical != bdsmaj::tt::npn_canonical(tt)) {
            fail("orbit minimum of " + std::to_string(f) + " disagrees with npn_canonical");
        }
        classes.push_back(canonical);
    }
    std::sort(classes.begin(), classes.end());

    std::ostringstream out;
    out << "// Generated by tools/gen_exact_table.cpp; do not edit by hand.\n"
           "// Regenerate with: build/gen_exact_table src/decomp/exact_table.inc\n"
           "//\n"
           "// One ExactStructure per NPN class of 4-input functions, sorted by\n"
           "// canonical truth table: {canonical, tree cost, gate count, {gates},\n"
           "// output}. A gate is {op, a, b, c}; kAnd and kXor leave c at the\n"
           "// constant. A reference is {index, complemented}, where index 0-3 is a\n"
           "// canonical-space input, 4 + g is gate g and 255 is the constant\n"
           "// (complemented = one).\n";
    int total_gates = 0;
    for (const std::uint16_t canonical : classes) {
        std::vector<ExactGate> gates;
        std::unordered_map<std::uint16_t, ExactRef> memo;
        const ExactRef output = build_ref(canonical, t, gates, memo);
        const int n = static_cast<int>(gates.size());
        if (n > bdsmaj::decomp::kMaxExactGates) {
            fail("class " + std::to_string(canonical) + " needs " + std::to_string(n) +
                 " gates; raise kMaxExactGates");
        }
        ExactStructure s;
        s.canonical = canonical;
        s.num_gates = static_cast<std::uint8_t>(n);
        std::copy(gates.begin(), gates.end(), s.gate_array.begin());
        s.output = output;
        if (s.eval_tt() != canonical) {
            fail("program for class " + std::to_string(canonical) + " is wrong");
        }
        total_gates += n;

        char head[64];
        std::snprintf(head, sizeof(head), "{0x%04x, %d, %d, ", canonical,
                      t.cost[canonical], n);
        out << head;
        if (n == 0) {
            out << "{}";
        } else {
            out << "{{";
            for (int g = 0; g < n; ++g) {
                const ExactGate& gate = gates[static_cast<std::size_t>(g)];
                out << "\n    {" << op_name(gate.op) << ", " << ref_text(gate.a) << ", "
                    << ref_text(gate.b) << ", " << ref_text(gate.c) << "}"
                    << (g + 1 < n ? "," : "");
            }
            out << "}}";
        }
        out << ", " << ref_text(output) << "},\n";
    }
    out << "// " << classes.size() << " classes, " << total_gates << " gates.\n";
    return out.str();
}

}  // namespace

int main(int argc, char** argv) {
    const bool check = argc == 3 && std::string(argv[1]) == "--check";
    if (argc != 2 && !check) {
        std::fprintf(stderr, "usage: gen_exact_table [--check] FILE\n");
        return 2;
    }
    const std::string path = argv[argc - 1];
    const std::string table = generate();
    if (check) {
        std::ifstream in(path, std::ios::binary);
        if (!in) fail("cannot read " + path);
        const std::string committed((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
        if (committed != table) {
            std::fprintf(stderr,
                         "gen_exact_table: %s differs from the generator's output; "
                         "regenerate it with gen_exact_table %s\n",
                         path.c_str(), path.c_str());
            return 1;
        }
        std::printf("gen_exact_table: %s is up to date\n", path.c_str());
        return 0;
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << table;
    if (!out) fail("cannot write " + path);
    std::printf("gen_exact_table: wrote %s\n", path.c_str());
    return 0;
}
