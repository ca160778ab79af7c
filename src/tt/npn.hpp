#pragma once
// NPN canonicalization of 4-variable functions (16-bit truth tables).
//
// Two functions are NPN-equivalent when one can be obtained from the other
// by Negating inputs, Permuting inputs, and/or Negating the output. The AIG
// cut-rewriting pass matches 4-input cuts against a precomputed library of
// optimal structures indexed by NPN class, so it needs a fast exact
// canonicalizer plus the transform that maps a function onto its class
// representative (and back).

#include <array>
#include <cstdint>

namespace bdsmaj::tt {

/// One N/P/N transform on a 4-variable function: first complement the
/// inputs selected by `input_negation`, then route original input i to
/// position `permutation[i]`, then optionally complement the output.
struct NpnTransform {
    std::array<std::uint8_t, 4> permutation{0, 1, 2, 3};
    std::uint8_t input_negation = 0;
    bool output_negation = false;
};

/// Apply `t` to a 16-bit truth table.
[[nodiscard]] std::uint16_t apply_npn(std::uint16_t tt, const NpnTransform& t);

/// Transform that undoes `t` (apply_npn(apply_npn(f, t), inverse) == f).
[[nodiscard]] NpnTransform invert_npn(const NpnTransform& t);

/// Exact NPN-canonical representative of `tt` (minimum 16-bit value over
/// all 768 transforms). When `transform` is non-null it receives a
/// transform such that apply_npn(tt, *transform) == canonical(tt).
[[nodiscard]] std::uint16_t npn_canonical(std::uint16_t tt,
                                          NpnTransform* transform = nullptr);

/// Number of distinct NPN classes over 4 variables (222); exposed for tests.
[[nodiscard]] int npn_class_count();

}  // namespace bdsmaj::tt
