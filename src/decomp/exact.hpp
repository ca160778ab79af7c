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
// Costs come from a one-time dynamic program over all 65536 truth tables
// (Dijkstra by gate count: cost(op(a, b)) <= cost(a) + cost(b) + 1, with
// 3-input MAJ/MUX taking at least one literal operand — the tractable tree
// grammar; see docs/performance.md). Per-class replay programs are
// materialized lazily on first miss into a process-wide, mutex-sharded
// cache shared by every decomposer on every thread: one enumeration serves
// all jobs for the rest of the process lifetime.
//
// A structure is a straight-line program over canonical-space inputs; the
// ConeMatch carries the NPN transform that binds those inputs back onto the
// engine's leaf signals (with polarities), so replay composes with any
// GateSink — the shared hash-consing builder or a worker's GateTape alike.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

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

    [[nodiscard]] static ExactRef input(int i, bool c) {
        return {static_cast<std::uint8_t>(i), c};
    }
    [[nodiscard]] static ExactRef gate(int g, bool c) {
        return {static_cast<std::uint8_t>(4 + g), c};
    }
    [[nodiscard]] static ExactRef constant(bool one) { return {kConstIndex, one}; }
    [[nodiscard]] bool is_const() const noexcept { return index == kConstIndex; }
    [[nodiscard]] bool is_input() const noexcept { return !is_const() && index < 4; }
    [[nodiscard]] ExactRef operator!() const { return {index, !complemented}; }
};

enum class ExactOp : std::uint8_t { kAnd, kXor, kMaj, kMux };

struct ExactGate {
    ExactOp op = ExactOp::kAnd;
    ExactRef a, b, c;  ///< c is used by kMaj and kMux (select = a) only
};

/// A straight-line replay program computing one NPN-canonical function of
/// the four canonical-space inputs. Immutable once published by the cache.
struct ExactStructure {
    std::uint16_t canonical = 0;   ///< the class this program computes
    std::vector<ExactGate> gates;  ///< topologically ordered
    ExactRef output;               ///< may reference an input or constant

    [[nodiscard]] int gate_count() const noexcept {
        return static_cast<int>(gates.size());
    }
    /// Evaluate the program over 16-bit truth-table arithmetic; returns the
    /// function of the output. Used by tests and debug assertions to prove
    /// the program really computes `canonical`.
    [[nodiscard]] std::uint16_t eval_tt() const;
};

/// How a concrete cone maps onto a cached structure: its truth table over
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
/// variables has a 16-bit truth table and a pre-enumerated NPN class.
inline constexpr int kMaxExactSupport = 4;

/// Extract the truth table of `f` when its support has at most
/// `max_support` (<= 4) variables; nullopt otherwise. Callers should
/// pre-filter on DAG size — a function on <= 4 variables never has more
/// than a handful of BDD nodes, so a size check makes the common reject
/// path O(1).
[[nodiscard]] std::optional<ConeMatch> match_cone(bdd::Manager& mgr,
                                                  const bdd::Bdd& f,
                                                  int max_support = 4);

/// Replay `s` into `sink` for the cone described by `match`: canonical
/// input j resolves through the inverse NPN transform to the leaf signal
/// of the corresponding support variable (complemented as needed), and the
/// program's output polarity absorbs the transform's output negation.
/// `leaves[v]` must be the sink signal of manager variable v.
[[nodiscard]] net::Signal emit_exact_cone(const ConeMatch& match,
                                          const ExactStructure& s,
                                          net::GateSink& sink,
                                          std::span<const net::Signal> leaves);

/// Telemetry of the process-wide class cache.
struct ExactCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;   ///< first-touch materializations
    int classes_cached = 0;
};

/// Process-wide NPN-class structure cache. Thread-safe; the underlying
/// cost table is enumerated once per process (on the first miss), the
/// per-class replay programs are materialized lazily under per-shard
/// mutexes and then shared by every thread for the process lifetime.
class ExactSynthesisCache {
public:
    /// The singleton shared by all decomposers/jobs/threads.
    [[nodiscard]] static ExactSynthesisCache& instance();

    /// Structure for an NPN-canonical class; `was_hit` (optional) reports
    /// whether the program was already materialized. Never fails: every
    /// 16-bit function is reachable in the enumeration grammar.
    [[nodiscard]] std::shared_ptr<const ExactStructure> lookup(
        std::uint16_t canonical, bool* was_hit = nullptr);

    /// Persist every materialized class to `path` (versioned binary
    /// format), via a temp file + atomic rename so a crash mid-save never
    /// corrupts an existing cache file. Entries are written in canonical
    /// order, so the bytes are deterministic for a given class set.
    /// Returns the number of classes written, or -1 on I/O failure.
    int save_to_file(const std::string& path) const;

    /// Pre-warm from a file written by save_to_file. Tolerant by design:
    /// a missing file, bad magic, unknown version or truncated payload
    /// loads nothing (returns 0) instead of failing the run, and every
    /// entry is re-validated (reference well-formedness + the program
    /// must evaluate to its claimed class) before being trusted — a
    /// corrupted structure is skipped, never served. Already-materialized
    /// classes keep their in-memory program (first insert wins). Returns
    /// the number of classes actually inserted.
    int load_from_file(const std::string& path);

    [[nodiscard]] ExactCacheStats stats() const;

private:
    ExactSynthesisCache() = default;

    static constexpr std::size_t kShards = 16;
    struct Shard {
        mutable std::mutex mutex;
        std::unordered_map<std::uint16_t, std::shared_ptr<const ExactStructure>> map;
    };
    std::array<Shard, kShards> shards_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

/// Minimal gate count of `tt` in the enumeration grammar (exposed for
/// tests; forces the one-time cost enumeration on first call).
[[nodiscard]] int exact_gate_cost(std::uint16_t tt);

}  // namespace bdsmaj::decomp
