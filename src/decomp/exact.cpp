#include "decomp/exact.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "runtime/fault_inject.hpp"

namespace bdsmaj::decomp {

namespace {

// Truth tables of the four canonical-space input literals.
constexpr std::uint16_t kLit[4] = {0xaaaa, 0xcccc, 0xf0f0, 0xff00};

std::uint16_t op_tt(ExactOp op, std::uint16_t a, std::uint16_t b, std::uint16_t c) {
    switch (op) {
        case ExactOp::kAnd: return a & b;
        case ExactOp::kXor: return a ^ b;
        case ExactOp::kMaj:
            return static_cast<std::uint16_t>((a & b) | (a & c) | (b & c));
        case ExactOp::kMux:  // a ? b : c
            return static_cast<std::uint16_t>((a & b) | (~a & c));
    }
    return 0;
}

// ---------------------------------------------------------------------------
// One-time cost enumeration: minimal tree gate count for every 16-bit
// function, Dijkstra-style by total gate count. NOT is free, so cost is
// complement-invariant; back-pointers record the actual operand functions
// used, and only for the polarity that was directly produced (the other
// polarity reconstructs as the complement).
// ---------------------------------------------------------------------------

struct Back {
    ExactOp op = ExactOp::kAnd;
    bool valid = false;
    std::uint16_t a = 0, b = 0, c = 0;  ///< operand truth tables as used
};

struct CostTable {
    std::array<std::uint8_t, 65536> cost{};
    std::array<Back, 65536> back{};
};

constexpr std::uint8_t kUnreached = 0xff;

const CostTable& cost_table() {
    static const CostTable table = [] {
        CostTable t;
        t.cost.fill(kUnreached);
        int discovered = 0;
        std::vector<std::vector<std::uint16_t>> levels(1);
        const auto seed = [&](std::uint16_t f) {
            if (t.cost[f] != kUnreached) return;
            t.cost[f] = 0;
            t.cost[static_cast<std::uint16_t>(~f)] = 0;
            levels[0].push_back(f);
            discovered += (f == static_cast<std::uint16_t>(~f)) ? 1 : 2;
        };
        seed(0x0000);
        for (const std::uint16_t lit : kLit) seed(lit);

        // Record f (and its free complement) as reachable at cost `c`.
        const auto relax = [&](std::uint16_t f, std::uint8_t c, ExactOp op,
                               std::uint16_t a, std::uint16_t b, std::uint16_t s3) {
            if (t.cost[f] != kUnreached) return;
            t.cost[f] = c;
            t.cost[static_cast<std::uint16_t>(~f)] = c;
            t.back[f] = Back{op, true, a, b, s3};
            levels[c].push_back(f);
            discovered += (f == static_cast<std::uint16_t>(~f)) ? 1 : 2;
        };

        for (std::uint8_t c = 1; discovered < 65536; ++c) {
            assert(c < 16 && "every 4-var function is reachable well before this");
            levels.emplace_back();
            // Partitions (c1, c2) with c1 + c2 == c - 1, cheapest pair
            // products first so the expensive ones mostly early-exit once
            // the table is full.
            std::vector<std::pair<int, int>> parts;
            for (int c1 = 0; c1 <= c - 1; ++c1) parts.emplace_back(c1, c - 1 - c1);
            std::stable_sort(parts.begin(), parts.end(),
                             [&](const auto& x, const auto& y) {
                                 return levels[static_cast<std::size_t>(x.first)].size() *
                                            levels[static_cast<std::size_t>(x.second)].size() <
                                        levels[static_cast<std::size_t>(y.first)].size() *
                                            levels[static_cast<std::size_t>(y.second)].size();
                             });
            for (const auto& [c1, c2] : parts) {
                const auto& la = levels[static_cast<std::size_t>(c1)];
                const auto& lb = levels[static_cast<std::size_t>(c2)];
                for (const std::uint16_t ra : la) {
                    if (discovered == 65536) break;
                    for (const std::uint16_t rb : lb) {
                        if (discovered == 65536) break;
                        // 2-input ops over all operand polarities. XOR needs
                        // only one combo (operand complements flip the
                        // output, which is free); AND's four combos also
                        // cover OR/NAND/NOR via free complements.
                        relax(op_tt(ExactOp::kXor, ra, rb, 0), c, ExactOp::kXor, ra, rb, 0);
                        for (int pa = 0; pa < 2; ++pa) {
                            const auto a = static_cast<std::uint16_t>(pa ? ~ra : ra);
                            for (int pb = 0; pb < 2; ++pb) {
                                const auto b = static_cast<std::uint16_t>(pb ? ~rb : rb);
                                relax(static_cast<std::uint16_t>(a & b), c,
                                      ExactOp::kAnd, a, b, 0);
                                // 3-input gates take one literal operand (the
                                // tractable tree grammar): MAJ(l, a, b) over
                                // both literal polarities, MUX(l, a, b) with
                                // selector polarity covered by the ordered
                                // (ra, rb) iteration.
                                for (const std::uint16_t lit : kLit) {
                                    relax(op_tt(ExactOp::kMaj, lit, a, b), c,
                                          ExactOp::kMaj, lit, a, b);
                                    relax(op_tt(ExactOp::kMaj,
                                                static_cast<std::uint16_t>(~lit), a, b),
                                          c, ExactOp::kMaj,
                                          static_cast<std::uint16_t>(~lit), a, b);
                                    relax(op_tt(ExactOp::kMux, lit, a, b), c,
                                          ExactOp::kMux, lit, a, b);
                                }
                            }
                        }
                    }
                }
            }
        }
        return t;
    }();
    return table;
}

/// Base reference for a cost-0 function: a constant or an input literal
/// (possibly complemented). Returns nullopt for non-base functions.
std::optional<ExactRef> base_ref(std::uint16_t f) {
    if (f == 0x0000) return ExactRef::constant(false);
    if (f == 0xffff) return ExactRef::constant(true);
    for (int i = 0; i < 4; ++i) {
        if (f == kLit[i]) return ExactRef::input(i, false);
        if (f == static_cast<std::uint16_t>(~kLit[i])) return ExactRef::input(i, true);
    }
    return std::nullopt;
}

/// Recursively materialize the program for `f` from the cost table's
/// back-pointers, deduplicating shared sub-functions (the tree-optimal
/// costs reconstruct into a DAG when operands repeat).
ExactRef build_ref(std::uint16_t f, const CostTable& t, ExactStructure& out,
                   std::unordered_map<std::uint16_t, ExactRef>& memo) {
    if (const auto base = base_ref(f)) return *base;
    if (const auto it = memo.find(f); it != memo.end()) return it->second;
    if (const auto it = memo.find(static_cast<std::uint16_t>(~f)); it != memo.end()) {
        return !it->second;
    }
    const Back* bk = &t.back[f];
    bool complement = false;
    if (!bk->valid) {
        bk = &t.back[static_cast<std::uint16_t>(~f)];
        complement = true;
        assert(bk->valid && "one polarity always has a back-pointer");
    }
    ExactGate gate;
    gate.op = bk->op;
    gate.a = build_ref(bk->a, t, out, memo);
    gate.b = build_ref(bk->b, t, out, memo);
    if (bk->op == ExactOp::kMaj || bk->op == ExactOp::kMux) {
        gate.c = build_ref(bk->c, t, out, memo);
    }
    out.gates.push_back(gate);
    const ExactRef ref =
        ExactRef::gate(static_cast<int>(out.gates.size()) - 1, complement);
    memo.emplace(complement ? static_cast<std::uint16_t>(~f) : f,
                 ExactRef{ref.index, false});
    return ref;
}

std::shared_ptr<const ExactStructure> enumerate_structure(std::uint16_t canonical) {
    const CostTable& t = cost_table();
    auto s = std::make_shared<ExactStructure>();
    s->canonical = canonical;
    std::unordered_map<std::uint16_t, ExactRef> memo;
    s->output = build_ref(canonical, t, *s, memo);
    assert(s->eval_tt() == canonical);
    return s;
}

}  // namespace

std::uint16_t ExactStructure::eval_tt() const {
    std::vector<std::uint16_t> value;
    value.reserve(gates.size());
    const auto resolve = [&](const ExactRef& r) -> std::uint16_t {
        std::uint16_t v;
        if (r.is_const()) {
            v = r.complemented ? 0xffff : 0x0000;
            return v;
        }
        v = r.is_input() ? kLit[r.index] : value[static_cast<std::size_t>(r.index - 4)];
        return r.complemented ? static_cast<std::uint16_t>(~v) : v;
    };
    for (const ExactGate& g : gates) {
        value.push_back(op_tt(g.op, resolve(g.a), resolve(g.b), resolve(g.c)));
    }
    return resolve(output);
}

std::optional<ConeMatch> match_cone(bdd::Manager& mgr, const bdd::Bdd& f,
                                    int max_support) {
    assert(max_support <= 4);
    const std::vector<int> support = mgr.support_vars(f);
    if (static_cast<int>(support.size()) > max_support) return std::nullopt;
    ConeMatch match;
    match.support_size = static_cast<int>(support.size());
    for (int i = 0; i < match.support_size; ++i) {
        match.support[static_cast<std::size_t>(i)] = support[static_cast<std::size_t>(i)];
    }
    std::vector<bool> values(static_cast<std::size_t>(mgr.num_vars()), false);
    for (int m = 0; m < 16; ++m) {
        for (int i = 0; i < match.support_size; ++i) {
            values[static_cast<std::size_t>(support[static_cast<std::size_t>(i)])] =
                ((m >> i) & 1) != 0;
        }
        if (mgr.eval(f, values)) {
            match.tt |= static_cast<std::uint16_t>(1u << m);
        }
    }
    match.canonical = tt::npn_canonical(match.tt, &match.transform);
    return match;
}

net::Signal emit_exact_cone(const ConeMatch& match, const ExactStructure& s,
                            net::GateSink& sink,
                            std::span<const net::Signal> leaves) {
    assert(s.canonical == match.canonical);
    // canonical(y) == f(x) ^ out_neg with y_{perm[v]} = x_v ^ neg_v, so
    // canonical input j binds to the leaf of support position invperm[j].
    std::array<int, 4> invperm{};
    for (int v = 0; v < 4; ++v) {
        invperm[match.transform.permutation[static_cast<std::size_t>(v)]] = v;
    }
    // Inputs resolve lazily: positions beyond the cone's support are never
    // referenced by a minimal structure, and eagerly materializing a
    // constant would emit a gate the replay does not use.
    std::array<net::Signal, 4> input{};
    std::array<bool, 4> input_ready{};
    std::vector<net::Signal> value;
    value.reserve(s.gates.size());
    const auto resolve = [&](const ExactRef& r) -> net::Signal {
        net::Signal v;
        if (r.is_const()) {
            v = sink.constant(r.complemented);
            return v;
        }
        if (r.is_input()) {
            if (!input_ready[r.index]) {
                const int pos = invperm[r.index];
                const bool negated =
                    ((match.transform.input_negation >> pos) & 1) != 0;
                net::Signal leaf;
                if (pos < match.support_size) {
                    const int var = match.support[static_cast<std::size_t>(pos)];
                    leaf = leaves[static_cast<std::size_t>(var)];
                } else {
                    leaf = sink.constant(false);  // padding var; unreachable
                }
                input[r.index] = negated ? !leaf : leaf;
                input_ready[r.index] = true;
            }
            v = input[r.index];
        } else {
            v = value[static_cast<std::size_t>(r.index - 4)];
        }
        return r.complemented ? !v : v;
    };
    for (const ExactGate& g : s.gates) {
        net::Signal out;
        switch (g.op) {
            case ExactOp::kAnd:
                out = sink.build_and(resolve(g.a), resolve(g.b));
                break;
            case ExactOp::kXor:
                out = sink.build_xor(resolve(g.a), resolve(g.b));
                break;
            case ExactOp::kMaj:
                out = sink.build_maj(resolve(g.a), resolve(g.b), resolve(g.c));
                break;
            case ExactOp::kMux:
                out = sink.build_mux(resolve(g.a), resolve(g.b), resolve(g.c));
                break;
        }
        value.push_back(out);
    }
    const net::Signal canonical_out = resolve(s.output);
    return match.transform.output_negation ? !canonical_out : canonical_out;
}

ExactSynthesisCache& ExactSynthesisCache::instance() {
    static ExactSynthesisCache cache;
    return cache;
}

std::shared_ptr<const ExactStructure> ExactSynthesisCache::lookup(
    std::uint16_t canonical, bool* was_hit) {
    Shard& shard = shards_[canonical % kShards];
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.map.find(canonical);
        if (it != shard.map.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            if (was_hit != nullptr) *was_hit = true;
            return it->second;
        }
    }
    // Enumerate outside the shard lock (the cost table has its own
    // once-initialization); a racing thread may materialize the same class
    // concurrently — both arrive at the identical program, first insert
    // wins and the duplicate is dropped.
    std::shared_ptr<const ExactStructure> built = enumerate_structure(canonical);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto [it, inserted] = shard.map.emplace(canonical, std::move(built));
    if (inserted) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        if (was_hit != nullptr) *was_hit = false;
    } else {
        hits_.fetch_add(1, std::memory_order_relaxed);
        if (was_hit != nullptr) *was_hit = true;
    }
    return it->second;
}

namespace {

// On-disk exact-cache layout (little-endian as stored; the file is a
// warm-start hint, not an interchange format):
//   "BMXC" magic, u32 version, u32 narrow class count, then per class:
//   u16 canonical, u16 gate count, gates as (op, a, b, c) with each
//   ExactRef as (index, complemented) byte pairs, and the output ref.
// Any other version (including the retired version 2, which appended
// programs for 5-6 input cones) loads nothing.
constexpr char kExactCacheMagic[4] = {'B', 'M', 'X', 'C'};
constexpr std::uint32_t kExactCacheVersion = 1;

void put_u16(std::string& out, std::uint16_t v) {
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
    put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
    put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

void put_ref(std::string& out, const ExactRef& r) {
    out.push_back(static_cast<char>(r.index));
    out.push_back(static_cast<char>(r.complemented ? 1 : 0));
}

struct ByteReader {
    const std::string& data;
    std::size_t at = 0;
    bool ok = true;

    std::uint8_t u8() {
        if (at >= data.size()) { ok = false; return 0; }
        return static_cast<std::uint8_t>(data[at++]);
    }
    std::uint16_t u16() {
        const std::uint16_t lo = u8();
        return static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(u8()) << 8));
    }
    std::uint32_t u32() {
        const std::uint32_t lo = u16();
        return lo | (static_cast<std::uint32_t>(u16()) << 16);
    }
    ExactRef ref() {
        ExactRef r;
        r.index = u8();
        r.complemented = u8() != 0;
        return r;
    }
};

/// Structural validity of a loaded ref at gate position `gate_pos`
/// (references may only reach inputs, earlier gates, or a constant).
bool ref_valid(const ExactRef& r, std::size_t gate_pos) {
    if (r.is_const()) return true;
    return r.index < 4 + gate_pos;
}

}  // namespace

int ExactSynthesisCache::save_to_file(const std::string& path) const {
    std::vector<std::shared_ptr<const ExactStructure>> entries;
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        for (const auto& [canonical, structure] : shard.map) entries.push_back(structure);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a->canonical < b->canonical; });

    std::string payload;
    payload.append(kExactCacheMagic, sizeof(kExactCacheMagic));
    put_u32(payload, kExactCacheVersion);
    put_u32(payload, static_cast<std::uint32_t>(entries.size()));
    for (const auto& s : entries) {
        put_u16(payload, s->canonical);
        put_u16(payload, static_cast<std::uint16_t>(s->gates.size()));
        for (const ExactGate& g : s->gates) {
            payload.push_back(static_cast<char>(g.op));
            put_ref(payload, g.a);
            put_ref(payload, g.b);
            put_ref(payload, g.c);
        }
        put_ref(payload, s->output);
    }

    // Write-then-rename: readers either see the complete old file or the
    // complete new one, never a torn save.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) return -1;
        out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
        if (!out) {
            std::remove(tmp.c_str());
            return -1;
        }
    }
    // Chaos site: a crash "between write and rename" — the throw leaves the
    // complete tmp file behind and the destination untouched, which is
    // exactly the torn-save window the loader must shrug off.
    runtime::fault_point(runtime::FaultSite::kExactCacheIo);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return -1;
    }
    return static_cast<int>(entries.size());
}

int ExactSynthesisCache::load_from_file(const std::string& path) {
    // Chaos site: an IO fault at load time must cost the warm start only.
    runtime::fault_point(runtime::FaultSite::kExactCacheIo);
    std::string data;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in) return 0;
        data.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    ByteReader rd{data};
    char magic[4];
    for (char& c : magic) c = static_cast<char>(rd.u8());
    if (!rd.ok || std::memcmp(magic, kExactCacheMagic, sizeof(magic)) != 0) return 0;
    const std::uint32_t version = rd.u32();
    if (version != kExactCacheVersion) return 0;
    const std::uint32_t count = rd.u32();
    if (!rd.ok) return 0;

    int inserted = 0;
    for (std::uint32_t i = 0; i < count && rd.ok; ++i) {
        auto s = std::make_shared<ExactStructure>();
        s->canonical = rd.u16();
        const std::uint16_t gate_count = rd.u16();
        bool valid = rd.ok;
        s->gates.reserve(gate_count);
        for (std::uint16_t g = 0; g < gate_count; ++g) {
            ExactGate gate;
            const std::uint8_t op = rd.u8();
            gate.op = static_cast<ExactOp>(op);
            gate.a = rd.ref();
            gate.b = rd.ref();
            gate.c = rd.ref();
            valid = valid && rd.ok && op <= static_cast<std::uint8_t>(ExactOp::kMux) &&
                    ref_valid(gate.a, g) && ref_valid(gate.b, g) && ref_valid(gate.c, g);
            s->gates.push_back(gate);
        }
        s->output = rd.ref();
        valid = valid && rd.ok && ref_valid(s->output, s->gates.size());
        // The semantic check: a structure is only trusted if it actually
        // computes the class it claims. This is what makes a corrupted
        // (but well-framed) file unable to poison synthesis results.
        if (!valid || s->eval_tt() != s->canonical) continue;

        Shard& shard = shards_[s->canonical % kShards];
        std::lock_guard<std::mutex> lock(shard.mutex);
        if (shard.map.emplace(s->canonical, std::move(s)).second) ++inserted;
    }
    return inserted;
}

ExactCacheStats ExactSynthesisCache::stats() const {
    ExactCacheStats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        out.classes_cached += static_cast<int>(shard.map.size());
    }
    return out;
}

int exact_gate_cost(std::uint16_t tt) {
    return cost_table().cost[tt];
}

}  // namespace bdsmaj::decomp
