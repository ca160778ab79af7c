#pragma once
// Exact synthesis backend for small cones (<= 4 support variables).
//
// Any function reaching the decomposition engine whose support fits in four
// variables has a 16-bit truth table; NPN canonicalization (tt/npn.hpp)
// collapses the 65536 functions into 222 classes. This module serves, per
// class, a minimal-gate-count fanout-free structure over the engine's gate
// alphabet {MAJ, AND, OR, XOR, MUX, NOT} — NOT is free (signals carry
// polarity), so AND with input/output complements subsumes OR/NAND/NOR and
// XOR subsumes XNOR.
//
// The programs are compiled in: tools/gen_exact_table.cpp runs the
// dynamic program over all 65536 truth tables once, offline (Dijkstra by
// gate count: cost(op(a, b)) <= cost(a) + cost(b) + 1, with 3-input
// MAJ/MUX taking at least one literal operand — the tractable tree grammar;
// see docs/exact-synthesis.md), and writes the committed
// decomp/exact_table.inc. A lookup is a binary search over that constant
// table; nothing is computed, locked or loaded at run time.
//
// A structure is a straight-line program over canonical-space inputs; the
// ConeMatch carries the NPN transform that binds those inputs back onto the
// engine's leaf signals (with polarities), so replay composes with any
// GateSink — the shared hash-consing builder or a worker's GateTape alike.

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "bdd/bdd.hpp"
#include "network/gate_sink.hpp"
#include "tt/npn.hpp"

namespace bdsmaj::decomp {

/// Operand of an exact-structure gate: a canonical-space input literal
/// (index 0..3), an earlier gate of the same program (index 4 + gate
/// position), or a constant, each with an optional complement.
struct ExactRef {
    static constexpr std::uint8_t kConstIndex = 0xff;
    std::uint8_t index = kConstIndex;
    bool complemented = false;  ///< for kConstIndex: true = constant one

    [[nodiscard]] static constexpr ExactRef input(int i, bool c) {
        return {static_cast<std::uint8_t>(i), c};
    }
    [[nodiscard]] static constexpr ExactRef gate(int g, bool c) {
        return {static_cast<std::uint8_t>(4 + g), c};
    }
    [[nodiscard]] static constexpr ExactRef constant(bool one) {
        return {kConstIndex, one};
    }
    [[nodiscard]] constexpr bool is_const() const noexcept { return index == kConstIndex; }
    [[nodiscard]] constexpr bool is_input() const noexcept {
        return !is_const() && index < 4;
    }
    [[nodiscard]] constexpr ExactRef operator!() const { return {index, !complemented}; }
};

enum class ExactOp : std::uint8_t { kAnd, kXor, kMaj, kMux };

struct ExactGate {
    ExactOp op = ExactOp::kAnd;
    ExactRef a, b, c;  ///< c is used by kMaj and kMux (select = a) only
};

/// Truth tables of the four canonical-space input literals.
inline constexpr std::array<std::uint16_t, 4> kExactInputTt = {0xaaaa, 0xcccc, 0xf0f0,
                                                              0xff00};

/// One gate over 16-bit truth-table arithmetic.
[[nodiscard]] constexpr std::uint16_t exact_op_tt(ExactOp op, std::uint16_t a,
                                                  std::uint16_t b, std::uint16_t c) {
    switch (op) {
        case ExactOp::kAnd: return a & b;
        case ExactOp::kXor: return a ^ b;
        case ExactOp::kMaj:
            return static_cast<std::uint16_t>((a & b) | (a & c) | (b & c));
        case ExactOp::kMux:  // a ? b : c
            return static_cast<std::uint16_t>((a & b) | (~a & c));
    }
    return 0;
}

/// Largest program of any class in the compiled table.
inline constexpr int kMaxExactGates = 5;

/// A straight-line replay program computing one NPN-canonical function of
/// the four canonical-space inputs: one entry of the compiled table.
struct ExactStructure {
    std::uint16_t canonical = 0;  ///< the class this program computes
    /// Minimal gate count in the tree grammar (exact_gate_cost). The
    /// program shares repeated sub-functions, so it may be smaller.
    std::uint8_t tree_cost = 0;
    std::uint8_t num_gates = 0;
    std::array<ExactGate, kMaxExactGates> gate_array{};  ///< topologically ordered
    ExactRef output;  ///< may reference an input or constant

    [[nodiscard]] constexpr int gate_count() const noexcept { return num_gates; }
    [[nodiscard]] constexpr std::span<const ExactGate> gates() const noexcept {
        return {gate_array.data(), num_gates};
    }
    /// Evaluate the program over 16-bit truth-table arithmetic; returns the
    /// function of the output. The table is checked with this at compile
    /// time, so every entry provably computes `canonical`.
    [[nodiscard]] constexpr std::uint16_t eval_tt() const {
        std::array<std::uint16_t, kMaxExactGates> value{};
        const auto resolve = [&value](const ExactRef& r) -> std::uint16_t {
            if (r.is_const()) return r.complemented ? 0xffff : 0x0000;
            const std::uint16_t v = r.is_input() ? kExactInputTt[r.index]
                                                 : value[static_cast<std::size_t>(r.index - 4)];
            return r.complemented ? static_cast<std::uint16_t>(~v) : v;
        };
        for (std::size_t g = 0; g < num_gates; ++g) {
            const ExactGate& gate = gate_array[g];
            value[g] = exact_op_tt(gate.op, resolve(gate.a), resolve(gate.b),
                                   resolve(gate.c));
        }
        return resolve(output);
    }
};

/// How a concrete cone maps onto a table structure: its truth table over
/// the (sorted, padded-to-4) support, the NPN class, and the transform
/// with apply_npn(tt, transform) == structure.canonical.
struct ConeMatch {
    std::uint16_t tt = 0;
    std::uint16_t canonical = 0;
    tt::NpnTransform transform;
    std::array<int, 4> support{-1, -1, -1, -1};  ///< manager var per position
    int support_size = 0;
};

/// Widest cone the exact backend serves: every function of up to this many
/// variables has a 16-bit truth table and an entry in the compiled table.
inline constexpr int kMaxExactSupport = 4;

/// Extract the truth table of `f` when its support has at most
/// `max_support` (<= 4) variables; nullopt otherwise. Callers should
/// pre-filter on DAG size — a function on <= 4 variables never has more
/// than a handful of BDD nodes, so a size check makes the common reject
/// path O(1).
[[nodiscard]] std::optional<ConeMatch> match_cone(bdd::Manager& mgr,
                                                  const bdd::Bdd& f,
                                                  int max_support = 4);

/// The compiled program for an NPN-canonical class. Never fails: the table
/// holds every one of the 222 classes. Counted in
/// ExactSynthesisCache::stats().hits.
[[nodiscard]] const ExactStructure& exact_structure(std::uint16_t canonical);

/// Replay `s` into `sink` for the cone described by `match`: canonical
/// input j resolves through the inverse NPN transform to the leaf signal
/// of the corresponding support variable (complemented as needed), and the
/// program's output polarity absorbs the transform's output negation.
/// `leaves[v]` must be the sink signal of manager variable v.
[[nodiscard]] net::Signal emit_exact_cone(const ConeMatch& match,
                                          const ExactStructure& s,
                                          net::GateSink& sink,
                                          std::span<const net::Signal> leaves);

/// Lookup counters. `misses` is always 0: the table is compiled in.
struct ExactCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

/// Counters-only view of exact_structure() lookups since process start.
/// The table itself needs no cache; this class remains for callers that
/// read the counters.
class ExactSynthesisCache {
public:
    [[nodiscard]] static ExactSynthesisCache& instance();
    [[nodiscard]] ExactCacheStats stats() const;

private:
    ExactSynthesisCache() = default;
};

/// Minimal tree gate count of `tt` in the enumeration grammar: the table's
/// tree cost for npn_canonical(tt) (the cost is NPN-invariant).
[[nodiscard]] int exact_gate_cost(std::uint16_t tt);

}  // namespace bdsmaj::decomp
