#pragma once
// GateTape: the recording GateSink behind per-supernode decomposition and
// the cone cache.
//
// Decomposing one supernode writes its factoring tree into a tape instead
// of the flow's hash-consed builder. Tape Signals live in a
// tape-local id space — leaf placeholders, a constant, and the results of
// earlier tape operations — so recording needs no shared mutable state and
// no knowledge of where the supernode's leaves will end up in the output
// network, which is what lets the cone cache share a tape between
// circuits. The flow then replays the tapes in supernode order into the
// real builder.
//
// Determinism contract: `replay` re-issues exactly the call sequence the
// engine made while recording, with leaf placeholders substituted by the
// caller's real signals. Because the engine never branches on the Signals
// a sink returns, replaying into a `HashedNetworkBuilder` produces the
// same network a direct-emission run would have produced — on-line
// sharing, constant folding and all — whether the tape was just recorded
// or served from the cone cache.
//
// Tape-local id layout (for a tape over L leaves):
//   [0, L)   leaf placeholders, in leaf order;
//   L        the constant; the Signal's complement bit selects the value
//            (so replay can materialize exactly the polarity requested);
//   L+1+k    the result of tape operation k.

#include <cstdint>
#include <span>
#include <vector>

#include "network/gate_sink.hpp"

namespace bdsmaj::net {

class GateTape final : public GateSink {
public:
    explicit GateTape(std::size_t num_leaves) : num_leaves_(num_leaves) {}

    /// Placeholder signal of leaf `i`; pass these as the decomposer leaves.
    [[nodiscard]] Signal leaf(std::size_t i) const {
        return Signal{static_cast<NodeId>(i), false};
    }
    [[nodiscard]] std::size_t num_leaves() const noexcept { return num_leaves_; }
    /// Number of recorded operations.
    [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }

    [[nodiscard]] Signal constant(bool value) override;
    [[nodiscard]] Signal build_and(Signal a, Signal b) override;
    [[nodiscard]] Signal build_or(Signal a, Signal b) override;
    [[nodiscard]] Signal build_xor(Signal a, Signal b) override;
    [[nodiscard]] Signal build_maj(Signal a, Signal b, Signal c) override;
    [[nodiscard]] Signal build_mux(Signal s, Signal t, Signal e) override;

    /// The tape-local signal computing the recorded function's root.
    void set_root(Signal s) { root_ = s; }
    [[nodiscard]] Signal root() const noexcept { return root_; }

    /// Re-issue the recorded calls into `sink`, substituting `leaves[i]`
    /// for leaf placeholder i, and return the sink-space signal of root().
    /// `leaves.size()` must equal num_leaves().
    [[nodiscard]] Signal replay(GateSink& sink, std::span<const Signal> leaves) const;

    /// Heap footprint of the recorded ops (capacity, not size): what a
    /// memory-budgeted cache holding this tape should account for.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return ops_.capacity() * sizeof(Entry);
    }
    /// Drop the recording head-room before publishing the tape into a
    /// long-lived cache.
    void shrink_to_fit() { ops_.shrink_to_fit(); }

private:
    enum class Op : std::uint8_t { kAnd, kOr, kXor, kMaj, kMux };

    struct Entry {
        Op op;
        Signal a, b, c;  // tape-local operands; c unused for 2-input ops
    };

    Signal record(Op op, Signal a, Signal b, Signal c);

    std::size_t num_leaves_;
    std::vector<Entry> ops_;
    Signal root_{};
};

}  // namespace bdsmaj::net
