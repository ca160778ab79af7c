#pragma once
// Cone memoization: a process-wide supernode -> GateTape result cache.
//
// Real workloads are massively self-similar — C6288 and the benchgen
// Wallace multipliers are hundreds of copies of the same full-adder cones,
// and a long-lived SynthesisService re-synthesizes identical cones across
// jobs. This module generalizes the exact tier's per-NPN-class reuse
// from 4-input truth tables to whole supernodes: a canonical signature of
// the cone keys the supernode's position-independent GateTape (plus its
// per-cone EngineStats), so `decompose_network` can skip the
// build-BDD/sift/decompose stage entirely on a hit and replay the cached
// tape through the leaf mapping.
//
// Determinism argument (the reason a hit is BYTE-identical to a cold run):
// the canonical form serializes exactly the sequence of BDD-manager calls
// build_supernode_bdd would issue — material ops (AND/XOR/MAJ/MUX/SOP) in
// cone topological order with operand references and polarities. The
// folds it performs are precisely the cone rewrites that provably leave
// that call sequence unchanged:
//   * NOT/BUF nodes create no BDD nodes (complement edges), so they fold
//     into reference polarity;
//   * NAND/NOR/XNOR complement the result of the same AND/OR/XOR core
//     call, so they fold into an output-polarity bit;
//   * OR(a,b) is implemented as NOT(AND(NOT a, NOT b)) on the shared
//     and_rec core, so OR folds into AND with complemented operands and a
//     complemented output;
//   * XOR's core strips operand complements internally, so operand
//     polarities fold into the output bit;
//   * AND's core (and the OR/AND pair inside MAJ) canonicalizes operand
//     order, so commutative operands are sorted.
// Equal canonical forms therefore drive a (fresh or reset) manager through
// the identical node-construction sequence, leaving the identical manager
// state for sifting — and the decomposer is a deterministic function of
// that state plus EngineParams, so the recorded tape and per-cone stats
// are identical too. Everything else that could change the emitted tape
// (preset and all EngineParams, ManagerParams, the reorder flag) is
// serialized into the key as a config prefix.
//
// The lookup structure is mutex-sharded with a per-shard LRU over a
// process-wide memory budget. The 64-bit simulation hash (bit-parallel
// evaluation of the cone over fixed pseudo-random leaf stimulus) is the
// fast pre-filter — shard selection and hash-bucket placement; equality
// always compares the full canonical byte string, so a simulation-hash
// collision between two different cones can never alias their tapes.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"
#include "decomp/engine.hpp"
#include "decomp/partition.hpp"
#include "network/gate_tape.hpp"
#include "network/network.hpp"

namespace bdsmaj::decomp {

/// Cache key of one supernode: the simulation hash (fast pre-filter) and
/// the full canonical serialization (config prefix + folded cone
/// structure), which is what equality compares.
struct ConeKey {
    std::uint64_t sim_hash = 0;
    std::string canonical;
};

/// Cached result of decomposing one cone: the position-independent tape
/// and the per-cone engine stats a cold run would have produced (stored so
/// a hit contributes the identical telemetry; cone_cache_* fields zeroed).
struct ConeCacheValue {
    std::shared_ptr<const net::GateTape> tape;
    EngineStats stats;
};

struct ConeCacheStats {
    long long hits = 0;
    long long misses = 0;
    long long evictions = 0;
    long long entries = 0;
    long long bytes = 0;
};

/// Deterministic 64-bit stimulus word of `leaf` in simulation round
/// `round` (kConeSimRounds rounds of 64 patterns each). Public so tests
/// can enumerate the exact pattern set and engineer hash collisions.
[[nodiscard]] std::uint64_t cone_sim_word(int round, std::size_t leaf);
inline constexpr int kConeSimRounds = 2;

/// Serialize every decomposition-relevant knob into the canonical-key
/// prefix: all EngineParams (preset included), all ManagerParams, and the
/// flow's reorder flag. Anything here differing forces a distinct entry.
[[nodiscard]] std::string cone_cache_config_blob(const EngineParams& engine,
                                                 const bdd::ManagerParams& manager,
                                                 bool reorder);

/// Canonical-key builder. Owns the dense node->reference scratch
/// (O(network) allocated once per flow, reset per supernode) and the
/// simulation buffers; not thread-safe, use one per flow.
class ConeKeyBuilder {
public:
    /// Canonical key of `sn` under `config` (a cone_cache_config_blob).
    /// Throws std::logic_error on a malformed supernode (cone fanin
    /// outside leaves + earlier cone), like build_supernode_bdd does.
    [[nodiscard]] ConeKey build(const net::Network& network, const Supernode& sn,
                                std::string_view config);

private:
    // Resolved reference of a cone value after polarity folding.
    struct Ref {
        std::uint8_t kind = 0;  // 0 const, 1 leaf, 2 material op
        std::uint32_t index = 0;
        bool complemented = false;
    };

    std::vector<std::uint32_t> pos_;  // node id -> dense position + 1
    std::vector<Ref> ref_of_;         // dense position -> resolved ref
    std::vector<std::uint64_t> sim_;  // dense position -> current round word
    std::vector<std::uint64_t> sop_fanin_words_;
};

/// Process-wide, mutex-sharded, memory-budgeted LRU tape cache.
class ConeCache {
public:
    /// The singleton shared by all flows/jobs/threads.
    [[nodiscard]] static ConeCache& instance();

    /// Cached value, or nullptr. A hit refreshes the entry's LRU position.
    [[nodiscard]] std::shared_ptr<const ConeCacheValue> lookup(const ConeKey& key);

    /// Publish a decomposition result. First insert wins: a concurrent
    /// duplicate (two workers cold-decomposing the same cone) is dropped —
    /// both tapes are identical by the determinism argument above, so
    /// which one survives is unobservable.
    void insert(const ConeKey& key, std::shared_ptr<const net::GateTape> tape,
                const EngineStats& stats);

    /// Process-wide byte budget (default 64 MiB). Shrinking evicts
    /// immediately. A budget of 0 effectively disables retention (inserts
    /// are evicted at once) without turning lookups off.
    void set_budget_bytes(std::size_t budget);
    [[nodiscard]] std::size_t budget_bytes() const;

    /// Drop every entry (tests, benchmarks); keeps the hit/miss counters.
    void clear();
    /// Drop every entry and zero the counters.
    void reset_stats();

    [[nodiscard]] ConeCacheStats stats() const;

private:
    ConeCache() = default;

    struct Entry {
        ConeKey key;
        std::shared_ptr<const ConeCacheValue> value;
        std::size_t bytes = 0;
    };
    using LruList = std::list<Entry>;

    // The map refers to the keys stored inside the (address-stable) list
    // nodes. Hashing is the sim-hash pre-filter; equality is the full
    // canonical-form comparison — the no-aliasing guarantee.
    struct KeyPtrHash {
        std::size_t operator()(const ConeKey* k) const noexcept {
            return static_cast<std::size_t>(k->sim_hash *
                                            0x9e3779b97f4a7c15ULL);
        }
    };
    struct KeyPtrEq {
        bool operator()(const ConeKey* a, const ConeKey* b) const noexcept {
            return a->sim_hash == b->sim_hash && a->canonical == b->canonical;
        }
    };

    struct Shard {
        mutable std::mutex mutex;
        LruList lru;  // front = most recently used
        std::unordered_map<const ConeKey*, LruList::iterator, KeyPtrHash, KeyPtrEq> map;
        std::size_t bytes = 0;
    };

    static constexpr std::size_t kShards = 16;

    [[nodiscard]] Shard& shard_of(const ConeKey& key) {
        return shards_[key.sim_hash & (kShards - 1)];
    }
    /// Evict from the tail while the shard exceeds its budget slice.
    /// Caller holds the shard mutex.
    void evict_over_budget(Shard& shard);

    std::array<Shard, kShards> shards_;
    std::atomic<std::size_t> budget_{std::size_t{64} << 20};
    std::atomic<long long> hits_{0};
    std::atomic<long long> misses_{0};
    std::atomic<long long> evictions_{0};
};

}  // namespace bdsmaj::decomp
