#pragma once
// Proxies for the MCNC benchmarks of Table I/II. The MCNC suite is not
// redistributable here; see docs/architecture.md, "Substitutions":
//  * circuits whose function is known are generated exactly by function
//    (C6288 = 16x16 multiplier, C1355 = 32-bit single-error-correcting
//    decoder, alu2/f51m = small arithmetic/logic units);
//  * random-control circuits (apex6, vda, misex3, seq, bigkey) become
//    seeded PLA-style generators with the published I/O counts.

#include "network/network.hpp"

namespace bdsmaj::benchgen {

/// 10-in 6-out 4-bit ALU (add/and/or/xor + carry and zero flags).
[[nodiscard]] net::Network make_alu2();
/// 16x16 array multiplier: the function and structure of C6288.
[[nodiscard]] net::Network make_c6288();
/// 41-in 32-out single-error-correcting decoder (C1355's function class).
[[nodiscard]] net::Network make_c1355();
/// 75-in 16-out dedicated ALU (masked arithmetic/logic unit).
[[nodiscard]] net::Network make_dalu();
/// 8-in 8-out arithmetic block (4x4 multiply-add, f51m's class).
[[nodiscard]] net::Network make_f51m();
/// Seeded PLA-style control-logic proxies with published I/O counts.
[[nodiscard]] net::Network make_apex6();
[[nodiscard]] net::Network make_vda();
[[nodiscard]] net::Network make_misex3();
[[nodiscard]] net::Network make_seq();
/// XOR-mixing key-schedule-style circuit (bigkey's class: 229 in, 197 out).
[[nodiscard]] net::Network make_bigkey();

/// Generic seeded PLA-style control logic generator (exposed for tests and
/// ablations): `products` cubes per output over random input subsets.
[[nodiscard]] net::Network make_random_control(const std::string& name, int inputs,
                                               int outputs, int products,
                                               std::uint64_t seed);

}  // namespace bdsmaj::benchgen
