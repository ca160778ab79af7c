#include "tt/npn.hpp"

#include <algorithm>
#include <unordered_set>

namespace bdsmaj::tt {
namespace {

constexpr std::uint16_t kVarMask4[4] = {0xaaaa, 0xcccc, 0xf0f0, 0xff00};

std::uint16_t flip_input(std::uint16_t tt, int var) {
    const std::uint16_t mask = kVarMask4[var];
    const int shift = 1 << var;
    return static_cast<std::uint16_t>(((tt & mask) >> shift) |
                                      ((tt & static_cast<std::uint16_t>(~mask))
                                       << shift));
}

std::uint16_t permute_inputs(std::uint16_t tt,
                             const std::array<std::uint8_t, 4>& perm) {
    std::uint16_t out = 0;
    for (int m = 0; m < 16; ++m) {
        if (!((tt >> m) & 1)) continue;
        int dst = 0;
        for (int v = 0; v < 4; ++v) {
            if ((m >> v) & 1) dst |= 1 << perm[v];
        }
        out |= static_cast<std::uint16_t>(1u << dst);
    }
    return out;
}

const std::array<std::array<std::uint8_t, 4>, 24>& all_permutations() {
    static const auto perms = [] {
        std::array<std::array<std::uint8_t, 4>, 24> out{};
        std::array<std::uint8_t, 4> p{0, 1, 2, 3};
        int i = 0;
        do {
            out[i++] = p;
        } while (std::next_permutation(p.begin(), p.end()));
        return out;
    }();
    return perms;
}

}  // namespace

std::uint16_t apply_npn(std::uint16_t tt, const NpnTransform& t) {
    for (int v = 0; v < 4; ++v) {
        if ((t.input_negation >> v) & 1) tt = flip_input(tt, v);
    }
    tt = permute_inputs(tt, t.permutation);
    if (t.output_negation) tt = static_cast<std::uint16_t>(~tt);
    return tt;
}

NpnTransform invert_npn(const NpnTransform& t) {
    NpnTransform inv;
    inv.output_negation = t.output_negation;
    // Forward routes original i -> t.permutation[i]; the inverse routes back.
    for (int v = 0; v < 4; ++v) inv.permutation[t.permutation[v]] = v;
    // Forward negates input i before permuting; after inverting the
    // permutation the negation applies at position t.permutation[i].
    inv.input_negation = 0;
    for (int v = 0; v < 4; ++v) {
        if ((t.input_negation >> v) & 1) {
            inv.input_negation |= static_cast<std::uint8_t>(1 << t.permutation[v]);
        }
    }
    return inv;
}

std::uint16_t npn_canonical(std::uint16_t tt, NpnTransform* transform) {
    std::uint16_t best = 0xffff;
    NpnTransform best_t;
    for (const auto& perm : all_permutations()) {
        for (int neg = 0; neg < 16; ++neg) {
            NpnTransform t;
            t.permutation = perm;
            t.input_negation = static_cast<std::uint8_t>(neg);
            t.output_negation = false;
            std::uint16_t f = apply_npn(tt, t);
            if (f < best) {
                best = f;
                best_t = t;
            }
            f = static_cast<std::uint16_t>(~f);
            if (f < best) {
                best = f;
                best_t = t;
                best_t.output_negation = true;
            }
        }
    }
    if (transform != nullptr) *transform = best_t;
    return best;
}

int npn_class_count() {
    static const int count = [] {
        std::unordered_set<std::uint16_t> classes;
        for (int f = 0; f < 0x10000; ++f) {
            classes.insert(npn_canonical(static_cast<std::uint16_t>(f)));
        }
        return static_cast<int>(classes.size());
    }();
    return count;
}

}  // namespace bdsmaj::tt
