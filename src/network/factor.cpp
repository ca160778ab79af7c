#include "network/factor.hpp"

namespace bdsmaj::net {

namespace detail {

bool most_frequent_literal_generic(const std::vector<Cube>& cubes,
                                   GenericLitRef* out) {
    if (cubes.empty()) return false;
    // Flat per-position counters; the scan order (position ascending,
    // negative polarity before positive) matches the ordered-map iteration
    // this replaces, so ties resolve identically.
    const std::size_t arity = cubes.front().lits.size();
    std::vector<int> neg_counts(arity, 0), pos_counts(arity, 0);
    for (const Cube& c : cubes) {
        for (std::size_t i = 0; i < c.lits.size(); ++i) {
            if (c.lits[i] == Lit::kPos) {
                ++pos_counts[i];
            } else if (c.lits[i] == Lit::kNeg) {
                ++neg_counts[i];
            }
        }
    }
    int best = 1;
    for (std::size_t i = 0; i < arity; ++i) {
        if (neg_counts[i] > best) {
            best = neg_counts[i];
            *out = GenericLitRef{i, false};
        }
        if (pos_counts[i] > best) {
            best = pos_counts[i];
            *out = GenericLitRef{i, true};
        }
    }
    return best > 1;
}

}  // namespace detail
}  // namespace bdsmaj::net
