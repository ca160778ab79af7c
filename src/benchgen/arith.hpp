#pragma once
// Generators for the paper's HDL arithmetic benchmarks (Table I/II):
// SQRT 32, Wallace 16, CLA 64, Rev (1/X) 19, Div 18, MAC 16, 4-Op ADD 16,
// plus the multiplier behind C6288. Each generator builds the named
// function structurally; tests verify every one against an integer oracle
// by simulation, so these are the paper's workloads by function (see
// docs/architecture.md, "Substitutions").
//
// Bit i of every bus is the weight-2^i signal, named e.g. "a3".

#include <cstdint>

#include "network/network.hpp"

namespace bdsmaj::benchgen {

/// Ripple-carry adder: a[bits] + b[bits] + cin -> s[bits], cout.
[[nodiscard]] net::Network make_ripple_adder(int bits);
/// Carry-lookahead adder with 4-bit blocks (the paper's CLA 64 bit).
[[nodiscard]] net::Network make_cla_adder(int bits);
/// Four-operand adder via a carry-save tree (the paper's 4-Op ADD 16 bit).
[[nodiscard]] net::Network make_four_operand_adder(int bits);
/// Array multiplier (carry-save rows of full adders: C6288's structure).
[[nodiscard]] net::Network make_array_multiplier(int bits);
/// Wallace-tree multiplier (3:2 compressor tree, CLA final stage).
[[nodiscard]] net::Network make_wallace_multiplier(int bits);
/// Multiply-accumulate: a[bits]*b[bits] + acc[2*bits] (the MAC 16 bit).
[[nodiscard]] net::Network make_mac(int bits);
/// Restoring integer divider: n[bits] / d[bits] -> q[bits], r[bits].
[[nodiscard]] net::Network make_restoring_divider(int bits);
/// Reciprocal 1/X: floor(2^(2*bits-2) / x) truncated to `bits` quotient
/// bits (the Rev (1/X) 19 bit benchmark).
[[nodiscard]] net::Network make_reciprocal(int bits);
/// Integer square root of a 2*root_bits input (SQRT 32 bit: root_bits=16).
[[nodiscard]] net::Network make_sqrt(int root_bits);

}  // namespace bdsmaj::benchgen
