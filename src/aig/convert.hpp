#pragma once
// Conversions between logic networks and AIGs.
//
// network -> AIG: structured gates decompose into hashed ANDs; SOP covers
// enter through their factored form.
//
// AIG -> network: AND nodes become AND gates with polarity tracked by the
// hash-consing builder; the canonical 3-AND XOR/MUX motif is recognized so
// XOR2/XNOR2 cells survive mapping (ABC's mapper recovers XORs through cut
// matching — motif detection is the structural equivalent here). MAJ
// structure is NOT recovered: that blindness is precisely what the paper's
// comparison exercises.

#include "aig/aig.hpp"
#include "network/network.hpp"

namespace bdsmaj::aig {

[[nodiscard]] Aig network_to_aig(const net::Network& network);

struct AigToNetworkOptions {
    bool detect_xor_mux = true;
};

/// Reconstruct a gate network; PI/PO order (and names, taken from `names`)
/// match the AIG's input/output order.
[[nodiscard]] net::Network aig_to_network(const Aig& aig,
                                          const std::vector<std::string>& input_names,
                                          const std::vector<std::string>& output_names,
                                          const AigToNetworkOptions& options = {});

/// The AIG script of the ABC and DC flows on a gate network: cleanup,
/// network_to_aig, `repeats` x resyn2, then aig_to_network with the
/// network's own PI/PO names, and cleanup again.
[[nodiscard]] net::Network resyn2_network(const net::Network& network, int repeats,
                                          const AigToNetworkOptions& options = {});

}  // namespace bdsmaj::aig
