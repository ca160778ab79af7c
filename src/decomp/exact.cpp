#include "decomp/exact.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <iterator>
#include <vector>

namespace bdsmaj::decomp {

namespace {

constexpr ExactStructure kExactTable[] = {
#include "decomp/exact_table.inc"
};

/// The compile-time proof behind the table: strictly sorted by canonical
/// (the lookup binary-searches it), every reference reaches only an input,
/// an earlier gate or a constant, and every program computes its class.
constexpr bool table_is_sound() {
    for (std::size_t i = 0; i < std::size(kExactTable); ++i) {
        const ExactStructure& s = kExactTable[i];
        if (i > 0 && kExactTable[i - 1].canonical >= s.canonical) return false;
        const auto reaches_earlier = [](const ExactRef& r, std::size_t pos) {
            return r.is_const() || r.index < 4 + pos;
        };
        for (std::size_t g = 0; g < s.gates().size(); ++g) {
            const ExactGate& gate = s.gates()[g];
            if (!reaches_earlier(gate.a, g) || !reaches_earlier(gate.b, g) ||
                !reaches_earlier(gate.c, g)) {
                return false;
            }
        }
        if (!reaches_earlier(s.output, s.gates().size())) return false;
        if (s.eval_tt() != s.canonical) return false;
    }
    return true;
}
static_assert(std::size(kExactTable) == 222, "one entry per NPN-4 class");
static_assert(table_is_sound(), "regenerate decomp/exact_table.inc with gen_exact_table");

/// exact_structure() calls since process start, for ExactSynthesisCache.
std::atomic<std::uint64_t> g_lookups{0};

const ExactStructure& find_class(std::uint16_t canonical) {
    const ExactStructure* it = std::lower_bound(
        std::begin(kExactTable), std::end(kExactTable), canonical,
        [](const ExactStructure& s, std::uint16_t c) { return s.canonical < c; });
    assert(it != std::end(kExactTable) && it->canonical == canonical &&
           "not an NPN-canonical truth table");
    return *it;
}

}  // namespace

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
    std::array<net::Signal, kMaxExactGates> value{};
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
    for (std::size_t i = 0; i < s.gates().size(); ++i) {
        const ExactGate& g = s.gates()[i];
        net::Signal& out = value[i];
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
    }
    const net::Signal canonical_out = resolve(s.output);
    return match.transform.output_negation ? !canonical_out : canonical_out;
}

ExactSynthesisCache& ExactSynthesisCache::instance() {
    static ExactSynthesisCache cache;
    return cache;
}

ExactCacheStats ExactSynthesisCache::stats() const {
    ExactCacheStats out;
    out.hits = g_lookups.load(std::memory_order_relaxed);
    return out;
}

const ExactStructure& exact_structure(std::uint16_t canonical) {
    g_lookups.fetch_add(1, std::memory_order_relaxed);
    return find_class(canonical);
}

int exact_gate_cost(std::uint16_t tt) {
    return find_class(tt::npn_canonical(tt)).tree_cost;
}

}  // namespace bdsmaj::decomp
