#include "benchgen/mcnc.hpp"

#include <gtest/gtest.h>

#include <random>

#include "benchgen/suite.hpp"
#include "network/cec.hpp"
#include "network/simulate.hpp"

namespace bdsmaj::benchgen {
namespace {

using net::Network;

TEST(Mcnc, Alu2OperationsAreCorrect) {
    const Network net = make_alu2();
    EXPECT_EQ(net.inputs().size(), 10u);
    EXPECT_EQ(net.outputs().size(), 6u);
    std::mt19937_64 rng(2101);
    for (int trial = 0; trial < 200; ++trial) {
        const unsigned a = static_cast<unsigned>(rng() & 0xf);
        const unsigned b = static_cast<unsigned>(rng() & 0xf);
        const unsigned op = static_cast<unsigned>(rng() & 3);
        std::vector<bool> in;
        for (int i = 0; i < 4; ++i) in.push_back((a >> i) & 1);
        for (int i = 0; i < 4; ++i) in.push_back((b >> i) & 1);
        in.push_back(op & 1);         // op0
        in.push_back((op >> 1) & 1);  // op1
        const auto out = simulate(net, in);
        unsigned expected = 0;
        switch (op) {
            case 0: expected = (a + b) & 0xf; break;
            case 1: expected = a & b; break;
            case 2: expected = a | b; break;
            default: expected = a ^ b; break;
        }
        unsigned got = 0;
        for (int i = 0; i < 4; ++i) got |= static_cast<unsigned>(out[i]) << i;
        EXPECT_EQ(got, expected) << "a=" << a << " b=" << b << " op=" << op;
        EXPECT_EQ(out[4], op == 0 && (a + b) > 0xf) << "carry flag";
        EXPECT_EQ(out[5], expected == 0) << "zero flag";
    }
}

TEST(Mcnc, C1355CorrectsSingleErrors) {
    const Network net = make_c1355();
    EXPECT_EQ(net.inputs().size(), 41u);
    EXPECT_EQ(net.outputs().size(), 32u);
    std::mt19937_64 rng(2103);
    const auto code = [](int i) { return i + 1; };
    for (int trial = 0; trial < 40; ++trial) {
        std::uint32_t data = static_cast<std::uint32_t>(rng());
        // Compute the correct check bits for the clean word.
        int check = 0;
        for (int k = 0; k < 8; ++k) {
            int parity = 0;
            for (int i = 0; i < 32; ++i) {
                if (((code(i) >> k) & 1) && ((data >> i) & 1)) parity ^= 1;
            }
            check |= parity << k;
        }
        // Flip one data bit (or none) and decode.
        const int flip = static_cast<int>(rng() % 33);  // 32 = no error
        std::uint32_t corrupted = data;
        if (flip < 32) corrupted ^= 1u << flip;
        std::vector<bool> in;
        for (int i = 0; i < 32; ++i) in.push_back((corrupted >> i) & 1);
        for (int k = 0; k < 8; ++k) in.push_back((check >> k) & 1);
        in.push_back(true);  // enable
        const auto out = simulate(net, in);
        std::uint32_t decoded = 0;
        for (int i = 0; i < 32; ++i) decoded |= static_cast<std::uint32_t>(out[i]) << i;
        EXPECT_EQ(decoded, data) << "single error at bit " << flip
                                 << " must be corrected";
    }
}

TEST(Mcnc, C1355DisabledPassesThrough) {
    const Network net = make_c1355();
    std::vector<bool> in(41, false);
    in[3] = true;  // one data bit
    in[40] = false;  // enable off: no correction even with bad checks
    const auto out = simulate(net, in);
    std::uint32_t decoded = 0;
    for (int i = 0; i < 32; ++i) decoded |= static_cast<std::uint32_t>(out[i]) << i;
    EXPECT_EQ(decoded, 8u);
}

TEST(Mcnc, PublishedIoCounts) {
    // The proxies must match the MCNC circuits' published I/O profile.
    const struct {
        const char* name;
        std::size_t inputs, outputs;
    } expected[] = {
        {"alu2", 10, 6},   {"C6288", 32, 32},  {"C1355", 41, 32},
        {"dalu", 75, 16},  {"apex6", 135, 99}, {"vda", 17, 39},
        {"f51m", 8, 8},    {"misex3", 14, 14}, {"seq", 41, 35},
        {"bigkey", 229, 197},
    };
    for (const auto& e : expected) {
        const Network net = benchmark_by_name(e.name);
        EXPECT_EQ(net.inputs().size(), e.inputs) << e.name;
        EXPECT_EQ(net.outputs().size(), e.outputs) << e.name;
    }
}

TEST(Mcnc, RandomControlIsDeterministic) {
    const Network a = make_random_control("x", 12, 6, 5, 99);
    const Network b = make_random_control("x", 12, 6, 5, 99);
    EXPECT_TRUE(net::check_equivalent(a, b).equivalent);
    const Network c = make_random_control("x", 12, 6, 5, 100);
    EXPECT_FALSE(net::check_equivalent(a, c).equivalent)
        << "different seeds should give different logic";
}

TEST(Mcnc, F51mComputesMultiplyAdd) {
    const Network net = make_f51m();
    std::mt19937_64 rng(2107);
    for (int trial = 0; trial < 100; ++trial) {
        const unsigned a = static_cast<unsigned>(rng() & 0xf);
        const unsigned b = static_cast<unsigned>(rng() & 0xf);
        std::vector<bool> in;
        for (int i = 0; i < 4; ++i) in.push_back((a >> i) & 1);
        for (int i = 0; i < 4; ++i) in.push_back((b >> i) & 1);
        const auto out = simulate(net, in);
        unsigned got = 0;
        for (int i = 0; i < 8; ++i) got |= static_cast<unsigned>(out[i]) << i;
        EXPECT_EQ(got, (a * b + a) & 0xff) << "a=" << a << " b=" << b;
    }
}

TEST(Suite, AllSeventeenBenchmarksBuild) {
    const auto names = benchmark_names();
    EXPECT_EQ(names.size(), 17u);
    const auto suite = table_suite(/*quick=*/true);
    EXPECT_EQ(suite.size(), 17u);
    int mcnc = 0;
    for (const auto& bc : suite) {
        EXPECT_FALSE(bc.network.inputs().empty()) << bc.name;
        EXPECT_FALSE(bc.network.outputs().empty()) << bc.name;
        EXPECT_GT(bc.network.stats().total(), 0) << bc.name;
        if (bc.is_mcnc) ++mcnc;
    }
    EXPECT_EQ(mcnc, 10);
    EXPECT_THROW((void)benchmark_by_name("nonesuch"), std::invalid_argument);
}

TEST(Suite, QuickVariantsAreSmaller) {
    for (const char* name : {"C6288", "Div 18 bit", "SQRT 32 bit"}) {
        const auto full = benchmark_by_name(name, /*quick=*/false);
        const auto quick = benchmark_by_name(name, /*quick=*/true);
        EXPECT_LT(quick.stats().total(), full.stats().total()) << name;
    }
}

}  // namespace
}  // namespace bdsmaj::benchgen
