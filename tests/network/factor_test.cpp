#include "network/factor.hpp"

#include <gtest/gtest.h>

#include <random>

namespace bdsmaj::net {
namespace {

using tt::TruthTable;

/// Literal leaves of the factored form of `sop`, counted through
/// factor_generic with a cost carrier instead of gates.
int factored_literals(const Sop& sop) {
    return detail::factor_generic(
        sop.cubes(), [](std::size_t, bool) { return 1; },
        [](int a, int b) { return a + b; }, [](int a, int b) { return a + b; },
        [](bool) { return 0; });
}

/// The function of the factored form of `sop` over `arity` variables,
/// evaluated through factor_generic with a truth-table carrier.
TruthTable factored_function(const Sop& sop, int arity) {
    return detail::factor_generic(
        sop.cubes(),
        [arity](std::size_t pos, bool positive) {
            const TruthTable v = TruthTable::var(arity, static_cast<int>(pos));
            return positive ? v : ~v;
        },
        [](const TruthTable& a, const TruthTable& b) { return a & b; },
        [](const TruthTable& a, const TruthTable& b) { return a | b; },
        [arity](bool v) { return v ? TruthTable::ones(arity) : TruthTable::zeros(arity); });
}

TEST(Factor, SynthesizedSopMatchesCover) {
    std::mt19937_64 rng(701);
    for (int arity : {1, 2, 3, 5, 7}) {
        for (int trial = 0; trial < 10; ++trial) {
            const TruthTable f = TruthTable::random(arity, rng);
            ASSERT_EQ(factored_function(Sop::isop(f), arity), f)
                << "arity " << arity << " trial " << trial;
        }
    }
}

TEST(Factor, ConstantsSynthesize) {
    EXPECT_EQ(factored_function(Sop(0), 0), TruthTable::zeros(0));
    EXPECT_EQ(factored_function(Sop::constant(true, 0), 0), TruthTable::ones(0));
}

TEST(Factor, SharedLiteralIsFactoredOut) {
    // ab + ac + ad factors as a(b+c+d): 3 gates beat the flat 4 (3 AND + OR
    // tree); the factored tree must have fewer literal leaves than the flat
    // cover's 6.
    Sop s(4);
    s.add_pattern("11--");
    s.add_pattern("1-1-");
    s.add_pattern("1--1");
    EXPECT_EQ(s.literal_count(), 6);
    EXPECT_EQ(factored_literals(s), 4);  // a, b, c, d once each
}

TEST(Factor, ParityFactorsOnlyThroughLiteralSharing) {
    // 3-input parity has 4 full cubes (12 literals). Quick-factor can only
    // co-factor on single literals (Shannon-style), which shares exactly two
    // literals: a(b'c' + bc) + a'(bc' + b'c) = 10 leaves. Kernel-free
    // functions must not compress further.
    TruthTable parity = TruthTable::zeros(3);
    for (int v = 0; v < 3; ++v) parity = parity ^ TruthTable::var(3, v);
    const Sop cover = Sop::isop(parity);
    EXPECT_EQ(cover.literal_count(), 12);
    EXPECT_EQ(factored_literals(cover), 10);
}

}  // namespace
}  // namespace bdsmaj::net
