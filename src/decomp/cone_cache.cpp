#include "decomp/cone_cache.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "network/sop.hpp"
#include "runtime/fault_inject.hpp"

namespace bdsmaj::decomp {

namespace {

using net::GateKind;
using net::NodeId;

[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// Raw little-endian-as-stored bytes: the blob never leaves the process, so
// object representation is a valid (and exhaustive) serialization.
template <typename T>
void append_raw(std::string& out, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    out.append(buf, sizeof(T));
}

void append_str(std::string& out, const std::string& s) {
    append_raw(out, static_cast<std::uint32_t>(s.size()));
    out.append(s);
}

// Canonical-form opcodes. OR/NAND/NOR fold into kOpAnd, XNOR into kOpXor,
// NOT/BUF/constants into reference polarity (see the header's determinism
// argument), so only the manager-call-issuing shapes appear here.
enum : std::uint8_t {
    kOpAnd = 1,
    kOpXor = 2,
    kOpMaj = 3,
    kOpMux = 4,
    kOpSop = 5,
    kOpRoot = 0xff,
};

}  // namespace

std::uint64_t cone_sim_word(int round, std::size_t leaf) {
    return splitmix64((static_cast<std::uint64_t>(static_cast<unsigned>(round)) << 32) ^
                      static_cast<std::uint64_t>(leaf + 1));
}

std::string cone_cache_config_blob(const EngineParams& engine,
                                   const bdd::ManagerParams& manager, bool reorder) {
    std::string out;
    out.reserve(128 + engine.preset.size());
    append_raw(out, std::uint8_t{5});  // blob layout version
    append_str(out, engine.preset);
    append_raw(out, static_cast<std::uint8_t>(engine.use_majority));
    append_raw(out, engine.max_simple_candidates);
    append_raw(out, engine.xor_acceptance_factor);
    append_raw(out, engine.exact_max_support);
    append_raw(out, engine.exact_min_saving);
    const MajDecompParams& maj = engine.maj;
    append_raw(out, maj.max_candidates);
    append_raw(out, maj.max_iterations);
    append_raw(out, maj.k_local);
    append_raw(out, maj.k_global);
    append_raw(out, maj.min_then_fanin);
    append_raw(out, maj.min_else_fanin);
    append_raw(out, static_cast<std::uint8_t>(maj.use_restrict));
    append_raw(out, maj.xor_params.max_var_candidates);
    append_raw(out, maj.xor_params.max_growth);
    append_raw(out, manager.cache_size_log2);
    append_raw(out, manager.cache_max_size_log2);
    append_raw(out, manager.gc_dead_threshold);
    append_raw(out, manager.sift_max_growth);
    append_raw(out, manager.sift_max_vars);
    append_raw(out, static_cast<std::uint8_t>(manager.sift_lower_bound));
    append_raw(out, static_cast<std::uint8_t>(manager.sift_converge));
    append_raw(out, manager.sift_converge_ratio);
    append_raw(out, manager.sift_max_passes);
    append_raw(out, static_cast<std::uint8_t>(manager.sift_symmetry));
    append_raw(out, engine.symmetric_max_support);
    append_raw(out, engine.symmetric_min_saving);
    append_raw(out, static_cast<std::uint8_t>(reorder));
    // Resource guards change which cones even finish (a guarded run must
    // never hit a tape an unguarded run produced, or cold and warm guarded
    // runs would diverge), so they are part of the key.
    append_raw(out, manager.max_live_nodes);
    append_raw(out, manager.sift_max_swaps);
    return out;
}

ConeKey ConeKeyBuilder::build(const net::Network& network, const Supernode& sn,
                              std::string_view config) {
    if (pos_.size() < network.node_count()) pos_.resize(network.node_count(), 0);
    const std::size_t num_leaves = sn.leaves.size();
    const std::size_t total = num_leaves + sn.cone.size();
    ref_of_.assign(total, Ref{});
    sim_.assign(total * kConeSimRounds, 0);

    // Mirror build_supernode_bdd's ScratchReset: the dense stamps must be
    // cleared on every exit (including the malformed-cone throw) or they
    // would alias unrelated nodes into later supernodes on this worker.
    struct ScratchReset {
        std::vector<std::uint32_t>& pos;
        const Supernode& sn;
        ~ScratchReset() {
            for (const NodeId leaf : sn.leaves) pos[leaf] = 0;
            for (const NodeId id : sn.cone) pos[id] = 0;
        }
    } reset_guard{pos_, sn};

    const auto at = [&](NodeId fanin) -> std::size_t {
        const std::uint32_t p = pos_[fanin];
        if (p == 0) {
            throw std::logic_error("supernode cone references node " +
                                   std::to_string(fanin) +
                                   " outside its leaves/cone");
        }
        return static_cast<std::size_t>(p - 1);
    };

    ConeKey key;
    key.canonical.reserve(config.size() + 16 + sn.cone.size() * 16);
    key.canonical.append(config);
    append_raw(key.canonical, static_cast<std::uint32_t>(num_leaves));

    // (kind, index, complemented) lexicographic: any deterministic order
    // works for commutative operands because the manager cores
    // re-canonicalize operand order themselves.
    const auto ref_less = [](const Ref& a, const Ref& b) {
        if (a.kind != b.kind) return a.kind < b.kind;
        if (a.index != b.index) return a.index < b.index;
        return a.complemented < b.complemented;
    };
    const auto append_ref = [&](const Ref& r) {
        append_raw(key.canonical, r.kind);
        append_raw(key.canonical, r.index);
        append_raw(key.canonical, static_cast<std::uint8_t>(r.complemented));
    };

    for (std::size_t i = 0; i < num_leaves; ++i) {
        assert(pos_[sn.leaves[i]] == 0);
        pos_[sn.leaves[i]] = static_cast<std::uint32_t>(i + 1);
        ref_of_[i] = Ref{1, static_cast<std::uint32_t>(i), false};
        for (int r = 0; r < kConeSimRounds; ++r) {
            sim_[i * kConeSimRounds + r] = cone_sim_word(r, i);
        }
    }

    std::uint32_t num_ops = 0;
    for (std::size_t j = 0; j < sn.cone.size(); ++j) {
        const NodeId id = sn.cone[j];
        const net::Node& n = network.node(id);
        const auto in = [&](std::size_t k) { return at(n.fanins[k]); };
        const auto word = [&](std::size_t p, int r) { return sim_[p * kConeSimRounds + r]; };

        const std::size_t self = num_leaves + j;
        Ref ref{};
        std::uint64_t w[kConeSimRounds] = {};
        const auto emit_op = [&](std::uint8_t opcode) {
            append_raw(key.canonical, opcode);
            ref = Ref{2, num_ops++, false};
        };

        switch (n.kind) {
            case GateKind::kInput:
                assert(false && "inputs cannot be cone-internal");
                ref = Ref{0, 0, false};
                break;
            case GateKind::kConst0:
                ref = Ref{0, 0, false};
                break;
            case GateKind::kConst1:
                ref = Ref{0, 0, true};
                for (auto& x : w) x = ~std::uint64_t{0};
                break;
            case GateKind::kBuf: {
                const std::size_t p = in(0);
                ref = ref_of_[p];
                for (int r = 0; r < kConeSimRounds; ++r) w[r] = word(p, r);
                break;
            }
            case GateKind::kNot: {
                const std::size_t p = in(0);
                ref = ref_of_[p];
                ref.complemented = !ref.complemented;
                for (int r = 0; r < kConeSimRounds; ++r) w[r] = ~word(p, r);
                break;
            }
            case GateKind::kAnd:
            case GateKind::kOr:
            case GateKind::kNand:
            case GateKind::kNor: {
                const std::size_t pa = in(0), pb = in(1);
                Ref a = ref_of_[pa], b = ref_of_[pb];
                // OR/NOR run the AND core on complemented operands
                // (apply_or = !and(!a, !b)); NAND/OR complement the result.
                const bool or_like = n.kind == GateKind::kOr || n.kind == GateKind::kNor;
                const bool out_compl = n.kind == GateKind::kOr || n.kind == GateKind::kNand;
                if (or_like) {
                    a.complemented = !a.complemented;
                    b.complemented = !b.complemented;
                }
                if (ref_less(b, a)) std::swap(a, b);
                emit_op(kOpAnd);
                append_ref(a);
                append_ref(b);
                ref.complemented = out_compl;
                for (int r = 0; r < kConeSimRounds; ++r) {
                    const std::uint64_t x = word(pa, r), y = word(pb, r);
                    std::uint64_t v = or_like ? (x | y) : (x & y);
                    if (n.kind == GateKind::kNand || n.kind == GateKind::kNor) v = ~v;
                    w[r] = v;
                }
                break;
            }
            case GateKind::kXor:
            case GateKind::kXnor: {
                const std::size_t pa = in(0), pb = in(1);
                Ref a = ref_of_[pa], b = ref_of_[pb];
                // The XOR core strips operand complements; they fold into
                // the output polarity along with the XNOR complement.
                bool out_compl = a.complemented != b.complemented;
                if (n.kind == GateKind::kXnor) out_compl = !out_compl;
                a.complemented = false;
                b.complemented = false;
                if (ref_less(b, a)) std::swap(a, b);
                emit_op(kOpXor);
                append_ref(a);
                append_ref(b);
                ref.complemented = out_compl;
                for (int r = 0; r < kConeSimRounds; ++r) {
                    w[r] = word(pa, r) ^ word(pb, r);
                    if (n.kind == GateKind::kXnor) w[r] = ~w[r];
                }
                break;
            }
            case GateKind::kMaj: {
                const std::size_t pa = in(0), pb = in(1), pc = in(2);
                const Ref a = ref_of_[pa];
                Ref b = ref_of_[pb], c = ref_of_[pc];
                // maj(a,b,c) = ite(a, or(b,c), and(b,c)): symmetric in
                // (b,c) only, and operand polarities are material.
                if (ref_less(c, b)) std::swap(b, c);
                emit_op(kOpMaj);
                append_ref(a);
                append_ref(b);
                append_ref(c);
                for (int r = 0; r < kConeSimRounds; ++r) {
                    const std::uint64_t x = word(pa, r), y = word(pb, r), z = word(pc, r);
                    w[r] = (x & y) | (x & z) | (y & z);
                }
                break;
            }
            case GateKind::kMux: {
                const std::size_t ps = in(0), pt = in(1), pe = in(2);
                emit_op(kOpMux);
                append_ref(ref_of_[ps]);
                append_ref(ref_of_[pt]);
                append_ref(ref_of_[pe]);
                for (int r = 0; r < kConeSimRounds; ++r) {
                    const std::uint64_t s = word(ps, r);
                    w[r] = (s & word(pt, r)) | (~s & word(pe, r));
                }
                break;
            }
            case GateKind::kSop: {
                // sop_to_bdd's call sequence is a deterministic function of
                // the cover and the fanin BDDs, so the cover serializes
                // verbatim (no folding) with the fanin refs in order.
                emit_op(kOpSop);
                append_raw(key.canonical, static_cast<std::uint32_t>(n.sop.arity()));
                append_raw(key.canonical, static_cast<std::uint32_t>(n.fanins.size()));
                for (std::size_t k = 0; k < n.fanins.size(); ++k) {
                    append_ref(ref_of_[in(k)]);
                }
                const auto& cubes = n.sop.cubes();
                append_raw(key.canonical, static_cast<std::uint32_t>(cubes.size()));
                for (const net::Cube& cube : cubes) {
                    for (const net::Lit lit : cube.lits) {
                        append_raw(key.canonical, static_cast<std::uint8_t>(lit));
                    }
                }
                for (int r = 0; r < kConeSimRounds; ++r) {
                    sop_fanin_words_.resize(n.fanins.size());
                    for (std::size_t k = 0; k < n.fanins.size(); ++k) {
                        sop_fanin_words_[k] = word(in(k), r);
                    }
                    w[r] = n.sop.eval_words(sop_fanin_words_);
                }
                break;
            }
        }

        assert(pos_[id] == 0);
        pos_[id] = static_cast<std::uint32_t>(self + 1);
        ref_of_[self] = ref;
        for (int r = 0; r < kConeSimRounds; ++r) sim_[self * kConeSimRounds + r] = w[r];
    }

    const std::size_t root_pos = at(sn.root);
    append_raw(key.canonical, std::uint8_t{kOpRoot});
    append_ref(ref_of_[root_pos]);

    std::uint64_t h = splitmix64(0x636f6e65ULL ^ static_cast<std::uint64_t>(num_leaves));
    for (int r = 0; r < kConeSimRounds; ++r) {
        h = splitmix64(h ^ sim_[root_pos * kConeSimRounds + r]);
    }
    key.sim_hash = h;
    return key;
}

ConeCache& ConeCache::instance() {
    static ConeCache cache;
    return cache;
}

std::shared_ptr<const ConeCacheValue> ConeCache::lookup(const ConeKey& key) {
    Shard& shard = shard_of(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(&key);
    if (it == shard.map.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->value;
}

void ConeCache::insert(const ConeKey& key, std::shared_ptr<const net::GateTape> tape,
                       const EngineStats& stats) {
    // Chaos site: a throw here unwinds before any shard state is touched,
    // so the cache is never left torn — the job fails, the cache stays
    // consistent for every other job.
    runtime::fault_point(runtime::FaultSite::kConeCacheInsert);
    auto value = std::make_shared<ConeCacheValue>();
    value->tape = std::move(tape);
    value->stats = stats;
    // A hit replays these stats verbatim as the supernode's telemetry; the
    // flow sets the hit/miss counters itself, so they must enter zeroed.
    value->stats.cone_cache_hits = 0;
    value->stats.cone_cache_misses = 0;
    value->stats.cone_cache_evictions = 0;
    value->stats.cone_cache_bytes = 0;

    // Canonical string + tape + list/map node and control-block overhead.
    const std::size_t bytes = key.canonical.size() + value->tape->memory_bytes() +
                              sizeof(Entry) + sizeof(ConeCacheValue) + 128;

    Shard& shard = shard_of(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.map.find(&key) != shard.map.end()) return;  // first insert wins
    shard.lru.push_front(Entry{key, std::move(value), bytes});
    shard.map.emplace(&shard.lru.front().key, shard.lru.begin());
    shard.bytes += bytes;
    evict_over_budget(shard);
}

void ConeCache::evict_over_budget(Shard& shard) {
    const std::size_t slice = budget_.load(std::memory_order_relaxed) / kShards;
    while (shard.bytes > slice && !shard.lru.empty()) {
        Entry& victim = shard.lru.back();
        shard.map.erase(&victim.key);
        shard.bytes -= victim.bytes;
        shard.lru.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

void ConeCache::set_budget_bytes(std::size_t budget) {
    budget_.store(budget, std::memory_order_relaxed);
    for (Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        evict_over_budget(shard);
    }
}

std::size_t ConeCache::budget_bytes() const {
    return budget_.load(std::memory_order_relaxed);
}

void ConeCache::clear() {
    for (Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.map.clear();
        shard.lru.clear();
        shard.bytes = 0;
    }
}

void ConeCache::reset_stats() {
    clear();
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
}

ConeCacheStats ConeCache::stats() const {
    ConeCacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        s.entries += static_cast<long long>(shard.lru.size());
        s.bytes += static_cast<long long>(shard.bytes);
    }
    return s;
}

}  // namespace bdsmaj::decomp
