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
// ConeKeyBuilder::build, the only walk of a supernode's cone, folds the
// cone into the material manager calls (AND/XOR/MAJ/MUX/SOP in cone
// topological order, with operand references and polarities) that
// build_bdd later issues, and serializes those calls as the key. The BDD
// is built from the key, so equal keys drive a (fresh or reset) manager
// through identical calls by construction. Each fold keeps the cone's
// function and rests on the manager's own operand canonicalization:
//   * NOT/BUF fold into reference polarity (complement edges, no node);
//   * NAND/NOR/XNOR complement the result of the same AND/OR/XOR core
//     call, so they fold into an output-polarity bit;
//   * OR(a,b) is NOT(AND(NOT a, NOT b)) on the shared and_rec core, so OR
//     folds into AND with complemented operands and output;
//   * xor_rec strips operand complements first, so operand polarities
//     fold into the output bit;
//   * and_rec (and the OR/AND pair inside MAJ) orders its operands
//     itself, so commutative operands are sorted.
// Equal keys therefore leave identical manager state for sifting, and the
// decomposer is a deterministic function of that state plus EngineParams,
// so the recorded tape and per-cone stats are identical too. Everything
// else that could change the emitted tape (preset and all EngineParams,
// ManagerParams, the reorder flag) is serialized into the key as a config
// prefix.
//
// The store is one mutex, one LRU list and one hash map under a
// process-wide memory budget. The key's hash (of the canonical bytes)
// only places the entry in a bucket; equality always compares the full
// canonical byte string, so a hash collision between two different cones
// can never alias their tapes.

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

/// Cache key of one supernode: the full canonical serialization (config
/// prefix + folded cone structure), which is what equality compares, and
/// its hash, computed once by the builder.
struct ConeKey {
    std::size_t hash = 0;
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

/// Serialize every decomposition-relevant knob into the canonical-key
/// prefix: all EngineParams (preset included), all ManagerParams, and the
/// flow's reorder flag. Anything here differing forces a distinct entry.
[[nodiscard]] std::string cone_cache_config_blob(const EngineParams& engine,
                                                 const bdd::ManagerParams& manager,
                                                 bool reorder);

/// Cone compiler: walks a supernode's cone once, into its canonical key
/// and the call list build_bdd issues. Owns the dense node->reference
/// scratch (O(network) allocated once per flow, reset per supernode); not
/// thread-safe, use one per flow.
class ConeKeyBuilder {
public:
    /// Canonical key of `sn` under `config` (a cone_cache_config_blob;
    /// empty when the key is not looked up), recording `sn`'s call list
    /// for build_bdd (it points into `network`'s SOP covers). Throws
    /// std::logic_error on a malformed supernode (cone fanin outside
    /// leaves + earlier cone); the builder stays usable.
    [[nodiscard]] ConeKey build(const net::Network& network, const Supernode& sn,
                                std::string_view config);

    /// Local BDD of the supernode last compiled, in `mgr` (fresh or reset,
    /// one variable per leaf, leaf i = variable i). Leaf handles are taken
    /// first and every result is held to the end, as node indices require.
    [[nodiscard]] bdd::Bdd build_bdd(bdd::Manager& mgr) const;

    [[nodiscard]] std::size_t num_leaves() const noexcept { return num_leaves_; }

private:
    // Resolved reference of a cone value after polarity folding. A
    // constant is the zero function, complemented for one.
    struct Ref {
        std::uint8_t kind = 0;  // 0 const, 1 leaf, 2 material op
        std::uint32_t index = 0;
        bool complemented = false;
    };
    // One material manager call: its opcode, its operands from
    // operands_[first] on, and for SOP the cover.
    struct Op {
        std::uint8_t opcode = 0;
        std::uint32_t first = 0;
        const net::Sop* sop = nullptr;
    };

    std::vector<std::uint32_t> pos_;  // node id -> dense position + 1
    std::vector<Ref> ref_of_;         // dense position -> resolved ref
    std::vector<Op> ops_;             // folded calls, in cone order
    std::vector<Ref> operands_;
    Ref root_;
    std::size_t num_leaves_ = 0;
};

/// Process-wide, mutex-guarded, memory-budgeted LRU tape cache.
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
    // nodes. Hashing places the bucket; equality is the full
    // canonical-form comparison — the no-aliasing guarantee.
    struct KeyPtrHash {
        std::size_t operator()(const ConeKey* k) const noexcept { return k->hash; }
    };
    struct KeyPtrEq {
        bool operator()(const ConeKey* a, const ConeKey* b) const noexcept {
            return a->hash == b->hash && a->canonical == b->canonical;
        }
    };

    /// Evict from the tail while the cache exceeds its budget. Caller
    /// holds mutex_.
    void evict_over_budget();

    mutable std::mutex mutex_;  // guards every member below
    LruList lru_;               // front = most recently used
    std::unordered_map<const ConeKey*, LruList::iterator, KeyPtrHash, KeyPtrEq> map_;
    std::size_t bytes_ = 0;
    std::size_t budget_ = std::size_t{64} << 20;
    long long hits_ = 0;
    long long misses_ = 0;
    long long evictions_ = 0;
};

}  // namespace bdsmaj::decomp
