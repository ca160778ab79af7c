#pragma once
// Algebraic factoring: rewrite SOP covers as AND/OR/NOT gate trees.
//
// factor_generic walks a cover's factored form and emits it through
// caller-supplied callbacks, so one walk serves every consumer: the AIG
// conversion and refactor pass build AIG literals, and the technology
// mapper builds library cells. The divisor search is the classical
// "quick factor": divide by the most frequent literal.

#include <cassert>
#include <vector>

#include "network/network.hpp"

namespace bdsmaj::net {

namespace detail {

/// A literal identified by (position, polarity) — shared with the header
/// template below.
struct GenericLitRef {
    std::size_t pos;
    bool positive;
};

/// Find a literal occurring in at least two cubes; prefer the most
/// frequent (the "quick factor" divisor choice). Returns false when none
/// exists.
bool most_frequent_literal_generic(const std::vector<Cube>& cubes,
                                   GenericLitRef* out);

/// Recursive factoring over a cube list; emits gates through callbacks so
/// the same walk serves both costing and synthesis.
template <typename MakeLit, typename MakeAnd, typename MakeOr, typename MakeConst>
auto factor_generic(std::vector<Cube> cubes, const MakeLit& make_lit,
                const MakeAnd& make_and, const MakeOr& make_or,
                const MakeConst& make_const)
    -> decltype(make_const(false)) {
    using R = decltype(make_const(false));
    if (cubes.empty()) return make_const(false);
    // Constant-1 cube?
    for (const Cube& c : cubes) {
        if (c.literal_count() == 0) return make_const(true);
    }
    if (cubes.size() == 1) {
        // Single product: balanced AND tree over its literals.
        std::vector<R> terms;
        for (std::size_t i = 0; i < cubes[0].lits.size(); ++i) {
            if (cubes[0].lits[i] == Lit::kDash) continue;
            terms.push_back(make_lit(i, cubes[0].lits[i] == Lit::kPos));
        }
        assert(!terms.empty());
        while (terms.size() > 1) {
            std::vector<R> next;
            for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
                next.push_back(make_and(terms[i], terms[i + 1]));
            }
            if (terms.size() % 2 == 1) next.push_back(terms.back());
            terms = std::move(next);
        }
        return terms[0];
    }
    GenericLitRef divisor{};
    if (!most_frequent_literal_generic(cubes, &divisor)) {
        // No shared literal: balanced OR over the cubes' AND trees.
        std::vector<R> terms;
        for (const Cube& c : cubes) {
            terms.push_back(factor_generic(std::vector<Cube>{c}, make_lit, make_and,
                                       make_or, make_const));
        }
        while (terms.size() > 1) {
            std::vector<R> next;
            for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
                next.push_back(make_or(terms[i], terms[i + 1]));
            }
            if (terms.size() % 2 == 1) next.push_back(terms.back());
            terms = std::move(next);
        }
        return terms[0];
    }
    // Divide: sop = L * quotient + remainder.
    std::vector<Cube> quotient, remainder;
    const Lit match = divisor.positive ? Lit::kPos : Lit::kNeg;
    for (Cube& c : cubes) {
        if (c.lits[divisor.pos] == match) {
            c.lits[divisor.pos] = Lit::kDash;
            quotient.push_back(std::move(c));
        } else {
            remainder.push_back(std::move(c));
        }
    }
    const R lit = make_lit(divisor.pos, divisor.positive);
    const R q = factor_generic(std::move(quotient), make_lit, make_and, make_or, make_const);
    const R left = make_and(lit, q);
    if (remainder.empty()) return left;
    const R right =
        factor_generic(std::move(remainder), make_lit, make_and, make_or, make_const);
    return make_or(left, right);
}

}  // namespace detail
}  // namespace bdsmaj::net
