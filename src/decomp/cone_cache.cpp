#include "decomp/cone_cache.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "network/simulate.hpp"
#include "network/sop.hpp"
#include "runtime/fault_inject.hpp"

namespace bdsmaj::decomp {

namespace {

using net::GateKind;
using net::NodeId;

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

std::string cone_cache_config_blob(const EngineParams& engine,
                                   const bdd::ManagerParams& manager, bool reorder) {
    std::string out;
    out.reserve(128 + engine.preset.size());
    append_raw(out, std::uint8_t{7});  // blob layout version
    append_str(out, engine.preset);
    append_raw(out, static_cast<std::uint8_t>(engine.use_majority));
    append_raw(out, engine.exact_max_support);
    const MajDecompParams& maj = engine.maj;
    append_raw(out, maj.max_candidates);
    append_raw(out, maj.max_iterations);
    append_raw(out, maj.k_local);
    append_raw(out, maj.k_global);
    append_raw(out, maj.min_then_fanin);
    append_raw(out, maj.min_else_fanin);
    append_raw(out, manager.cache_size_log2);
    append_raw(out, manager.cache_max_size_log2);
    append_raw(out, manager.gc_dead_threshold);
    append_raw(out, manager.sift_max_growth);
    append_raw(out, static_cast<std::uint8_t>(manager.sift_lower_bound));
    append_raw(out, static_cast<std::uint8_t>(manager.sift_converge));
    append_raw(out, static_cast<std::uint8_t>(manager.sift_symmetry));
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
    ops_.clear();
    operands_.clear();
    num_leaves_ = num_leaves;

    // The dense stamps must be cleared on every exit (including the
    // malformed-cone throw) or they would alias unrelated nodes into
    // later supernodes of this flow.
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
    // An operand of the op just emitted: into the key and the call list.
    const auto add_operand = [&](const Ref& r) {
        append_ref(r);
        operands_.push_back(r);
    };

    for (std::size_t i = 0; i < num_leaves; ++i) {
        assert(pos_[sn.leaves[i]] == 0);
        pos_[sn.leaves[i]] = static_cast<std::uint32_t>(i + 1);
        ref_of_[i] = Ref{1, static_cast<std::uint32_t>(i), false};
    }

    for (std::size_t j = 0; j < sn.cone.size(); ++j) {
        const NodeId id = sn.cone[j];
        const net::Node& n = network.node(id);
        const auto in = [&](std::size_t k) { return ref_of_[at(n.fanins[k])]; };

        Ref ref{};
        const auto emit_op = [&](std::uint8_t opcode) {
            append_raw(key.canonical, opcode);
            ref = Ref{2, static_cast<std::uint32_t>(ops_.size()), false};
            ops_.push_back(Op{opcode, static_cast<std::uint32_t>(operands_.size()), nullptr});
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
                break;
            case GateKind::kBuf:
                ref = in(0);
                break;
            case GateKind::kNot:
                ref = in(0);
                ref.complemented = !ref.complemented;
                break;
            case GateKind::kAnd:
            case GateKind::kOr:
            case GateKind::kNand:
            case GateKind::kNor: {
                Ref a = in(0), b = in(1);
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
                add_operand(a);
                add_operand(b);
                ref.complemented = out_compl;
                break;
            }
            case GateKind::kXor:
            case GateKind::kXnor: {
                Ref a = in(0), b = in(1);
                // The XOR core strips operand complements; they fold into
                // the output polarity along with the XNOR complement.
                bool out_compl = a.complemented != b.complemented;
                if (n.kind == GateKind::kXnor) out_compl = !out_compl;
                a.complemented = false;
                b.complemented = false;
                if (ref_less(b, a)) std::swap(a, b);
                emit_op(kOpXor);
                add_operand(a);
                add_operand(b);
                ref.complemented = out_compl;
                break;
            }
            case GateKind::kMaj: {
                const Ref a = in(0);
                Ref b = in(1), c = in(2);
                // maj(a,b,c) = ite(a, or(b,c), and(b,c)): symmetric in
                // (b,c) only, and operand polarities are material.
                if (ref_less(c, b)) std::swap(b, c);
                emit_op(kOpMaj);
                add_operand(a);
                add_operand(b);
                add_operand(c);
                break;
            }
            case GateKind::kMux:
                emit_op(kOpMux);
                add_operand(in(0));
                add_operand(in(1));
                add_operand(in(2));
                break;
            case GateKind::kSop: {
                // sop_to_bdd's call sequence is a deterministic function of
                // the cover and the fanin BDDs, so the cover serializes
                // verbatim (no folding) with the fanin refs in order.
                emit_op(kOpSop);
                ops_.back().sop = &n.sop;
                append_raw(key.canonical, static_cast<std::uint32_t>(n.sop.arity()));
                append_raw(key.canonical, static_cast<std::uint32_t>(n.fanins.size()));
                for (std::size_t k = 0; k < n.fanins.size(); ++k) add_operand(in(k));
                const auto& cubes = n.sop.cubes();
                append_raw(key.canonical, static_cast<std::uint32_t>(cubes.size()));
                for (const net::Cube& cube : cubes) {
                    for (const net::Lit lit : cube.lits) {
                        append_raw(key.canonical, static_cast<std::uint8_t>(lit));
                    }
                }
                break;
            }
        }

        const std::size_t self = num_leaves + j;
        assert(pos_[id] == 0);
        pos_[id] = static_cast<std::uint32_t>(self + 1);
        ref_of_[self] = ref;
    }

    root_ = ref_of_[at(sn.root)];
    append_raw(key.canonical, std::uint8_t{kOpRoot});
    append_ref(root_);
    key.hash = std::hash<std::string_view>{}(key.canonical);
    return key;
}

bdd::Bdd ConeKeyBuilder::build_bdd(bdd::Manager& mgr) const {
    std::vector<bdd::Bdd> leaves;
    leaves.reserve(num_leaves_);
    for (std::size_t i = 0; i < num_leaves_; ++i) {
        leaves.push_back(mgr.var_bdd(static_cast<int>(i)));
    }
    std::vector<bdd::Bdd> results;
    results.reserve(ops_.size());
    const auto value = [&](const Ref& r) -> bdd::Bdd {
        const bdd::Bdd v = r.kind == 0   ? mgr.zero()
                           : r.kind == 1 ? leaves[r.index]
                                         : results[r.index];
        return r.complemented ? !v : v;
    };
    for (const Op& op : ops_) {
        const auto in = [&](std::size_t k) { return value(operands_[op.first + k]); };
        switch (op.opcode) {
            case kOpAnd: results.push_back(mgr.apply_and(in(0), in(1))); break;
            case kOpXor: results.push_back(mgr.apply_xor(in(0), in(1))); break;
            case kOpMaj: results.push_back(mgr.maj(in(0), in(1), in(2))); break;
            case kOpMux: results.push_back(mgr.ite(in(0), in(1), in(2))); break;
            case kOpSop: results.push_back(net::sop_to_bdd(mgr, *op.sop, in)); break;
        }
    }
    return value(root_);
}

ConeCache& ConeCache::instance() {
    static ConeCache cache;
    return cache;
}

std::shared_ptr<const ConeCacheValue> ConeCache::lookup(const ConeKey& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(&key);
    if (it == map_.end()) {
        ++misses_;
        return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    return it->second->value;
}

void ConeCache::insert(const ConeKey& key, std::shared_ptr<const net::GateTape> tape,
                       const EngineStats& stats) {
    // Chaos site: a throw here unwinds before any cache state is touched,
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

    std::lock_guard<std::mutex> lock(mutex_);
    if (map_.find(&key) != map_.end()) return;  // first insert wins
    lru_.push_front(Entry{key, std::move(value), bytes});
    map_.emplace(&lru_.front().key, lru_.begin());
    bytes_ += bytes;
    evict_over_budget();
}

void ConeCache::evict_over_budget() {
    while (bytes_ > budget_ && !lru_.empty()) {
        Entry& victim = lru_.back();
        map_.erase(&victim.key);
        bytes_ -= victim.bytes;
        lru_.pop_back();
        ++evictions_;
    }
}

void ConeCache::set_budget_bytes(std::size_t budget) {
    std::lock_guard<std::mutex> lock(mutex_);
    budget_ = budget;
    evict_over_budget();
}

std::size_t ConeCache::budget_bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return budget_;
}

void ConeCache::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    lru_.clear();
    bytes_ = 0;
}

ConeCacheStats ConeCache::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ConeCacheStats{hits_, misses_, evictions_,
                          static_cast<long long>(lru_.size()),
                          static_cast<long long>(bytes_)};
}

}  // namespace bdsmaj::decomp
