// Functional verification of every arithmetic benchmark generator against
// integer oracles, by random and corner-case simulation.

#include "benchgen/arith.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>

#include "network/simulate.hpp"

namespace bdsmaj::benchgen {
namespace {

using net::Network;

/// Drive named input buses and read named output buses as integers.
class BusIo {
public:
    explicit BusIo(const Network& net) : net_(net) {
        values_.assign(net.inputs().size(), false);
        for (std::size_t i = 0; i < net.inputs().size(); ++i) {
            index_[net.node(net.inputs()[i]).name] = i;
        }
    }

    void set_bus(const std::string& prefix, int bits, std::uint64_t value) {
        for (int i = 0; i < bits; ++i) {
            set_bit(prefix + std::to_string(i), (value >> i) & 1);
        }
    }

    void set_bit(const std::string& name, bool value) {
        values_[index_.at(name)] = value;
    }

    void run() { outputs_ = simulate(net_, values_); }

    [[nodiscard]] std::uint64_t get_bus(const std::string& prefix, int bits) const {
        std::uint64_t value = 0;
        for (int i = 0; i < bits; ++i) {
            if (get_bit(prefix + std::to_string(i))) value |= std::uint64_t{1} << i;
        }
        return value;
    }

    [[nodiscard]] bool get_bit(const std::string& name) const {
        for (std::size_t o = 0; o < net_.outputs().size(); ++o) {
            if (net_.outputs()[o].name == name) return outputs_[o];
        }
        throw std::out_of_range("no output " + name);
    }

private:
    const Network& net_;
    std::unordered_map<std::string, std::size_t> index_;
    std::vector<bool> values_;
    std::vector<bool> outputs_;
};

TEST(Arith, RippleAdder) {
    const Network net = make_ripple_adder(8);
    BusIo io(net);
    std::mt19937_64 rng(2001);
    for (int trial = 0; trial < 200; ++trial) {
        const std::uint64_t a = rng() & 0xff, b = rng() & 0xff, c = rng() & 1;
        io.set_bus("a", 8, a);
        io.set_bus("b", 8, b);
        io.set_bit("cin", c);
        io.run();
        const std::uint64_t expected = a + b + c;
        EXPECT_EQ(io.get_bus("s", 8), expected & 0xff);
        EXPECT_EQ(io.get_bit("cout"), (expected >> 8) != 0);
    }
}

class ClaTest : public ::testing::TestWithParam<int> {};

TEST_P(ClaTest, MatchesIntegerAddition) {
    const int bits = GetParam();
    const Network net = make_cla_adder(bits);
    BusIo io(net);
    std::mt19937_64 rng(2003 + bits);
    const std::uint64_t mask =
        bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
    for (int trial = 0; trial < 100; ++trial) {
        const std::uint64_t a = rng() & mask, b = rng() & mask, c = rng() & 1;
        io.set_bus("a", bits, a);
        io.set_bus("b", bits, b);
        io.set_bit("cin", c);
        io.run();
        const unsigned __int128 expected =
            static_cast<unsigned __int128>(a) + b + c;
        EXPECT_EQ(io.get_bus("s", bits), static_cast<std::uint64_t>(expected & mask));
        EXPECT_EQ(io.get_bit("cout"), ((expected >> bits) & 1) != 0);
    }
    // Corners: all ones + 1 wraps with carry.
    io.set_bus("a", bits, mask);
    io.set_bus("b", bits, 0);
    io.set_bit("cin", true);
    io.run();
    EXPECT_EQ(io.get_bus("s", bits), 0u);
    EXPECT_TRUE(io.get_bit("cout"));
}

INSTANTIATE_TEST_SUITE_P(Widths, ClaTest, ::testing::Values(4, 7, 16, 64));

TEST(Arith, FourOperandAdder) {
    const int bits = 8;
    const Network net = make_four_operand_adder(bits);
    BusIo io(net);
    std::mt19937_64 rng(2005);
    for (int trial = 0; trial < 150; ++trial) {
        const std::uint64_t mask = (1u << bits) - 1;
        const std::uint64_t a = rng() & mask, b = rng() & mask;
        const std::uint64_t c = rng() & mask, d = rng() & mask;
        io.set_bus("a", bits, a);
        io.set_bus("b", bits, b);
        io.set_bus("c", bits, c);
        io.set_bus("d", bits, d);
        io.run();
        EXPECT_EQ(io.get_bus("s", bits + 2), a + b + c + d);
    }
}

// The kind is a std::string, not a `const char*`: the parameter is printed into
// the discovered test names, and a pointer would print its run-dependent address.
class MultiplierTest : public ::testing::TestWithParam<std::pair<std::string, int>> {};

TEST_P(MultiplierTest, MatchesIntegerMultiply) {
    const auto [which, bits] = GetParam();
    const Network net = which == "array"
                            ? make_array_multiplier(bits)
                            : make_wallace_multiplier(bits);
    BusIo io(net);
    std::mt19937_64 rng(2007 + bits);
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    for (int trial = 0; trial < 100; ++trial) {
        const std::uint64_t a = rng() & mask, b = rng() & mask;
        io.set_bus("a", bits, a);
        io.set_bus("b", bits, b);
        io.run();
        EXPECT_EQ(io.get_bus("p", 2 * bits), a * b) << a << "*" << b;
    }
    // Corners.
    for (const auto& [a, b] : {std::pair<std::uint64_t, std::uint64_t>{0, mask},
                              {mask, mask},
                              {1, mask}}) {
        io.set_bus("a", bits, a);
        io.set_bus("b", bits, b);
        io.run();
        EXPECT_EQ(io.get_bus("p", 2 * bits), a * b);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, MultiplierTest,
    ::testing::Values(std::make_pair(std::string("array"), 4),
                      std::make_pair(std::string("array"), 8),
                      std::make_pair(std::string("wallace"), 4),
                      std::make_pair(std::string("wallace"), 8),
                      std::make_pair(std::string("wallace"), 16)));

TEST(Arith, Mac) {
    const int bits = 8;
    const Network net = make_mac(bits);
    BusIo io(net);
    std::mt19937_64 rng(2011);
    const std::uint64_t mask = (1u << bits) - 1;
    for (int trial = 0; trial < 100; ++trial) {
        const std::uint64_t a = rng() & mask, b = rng() & mask;
        const std::uint64_t acc = rng() & ((std::uint64_t{1} << (2 * bits)) - 1);
        io.set_bus("a", bits, a);
        io.set_bus("b", bits, b);
        io.set_bus("acc", 2 * bits, acc);
        io.run();
        const std::uint64_t expected = a * b + acc;
        const std::uint64_t got =
            io.get_bus("m", 2 * bits) |
            (static_cast<std::uint64_t>(io.get_bit("mcout")) << (2 * bits));
        EXPECT_EQ(got, expected);
    }
}

TEST(Arith, RestoringDivider) {
    const int bits = 8;
    const Network net = make_restoring_divider(bits);
    BusIo io(net);
    std::mt19937_64 rng(2013);
    const std::uint64_t mask = (1u << bits) - 1;
    for (int trial = 0; trial < 200; ++trial) {
        const std::uint64_t n = rng() & mask;
        const std::uint64_t d = (rng() & mask) | 1;  // nonzero divisor
        io.set_bus("n", bits, n);
        io.set_bus("d", bits, d);
        io.run();
        EXPECT_EQ(io.get_bus("q", bits), n / d) << n << "/" << d;
        EXPECT_EQ(io.get_bus("r", bits), n % d) << n << "%" << d;
    }
}

TEST(Arith, Reciprocal) {
    const int bits = 10;
    const Network net = make_reciprocal(bits);
    BusIo io(net);
    const std::uint64_t dividend = std::uint64_t{1} << (2 * bits - 2);
    std::mt19937_64 rng(2017);
    for (int trial = 0; trial < 100; ++trial) {
        const std::uint64_t x = (rng() & ((1u << bits) - 1)) | 1;
        io.set_bus("x", bits, x);
        io.run();
        const std::uint64_t expected = (dividend / x) & ((1u << bits) - 1);
        EXPECT_EQ(io.get_bus("y", bits), expected) << "x=" << x;
    }
}

TEST(Arith, Sqrt) {
    const int root_bits = 8;
    const Network net = make_sqrt(root_bits);
    BusIo io(net);
    std::mt19937_64 rng(2019);
    const auto isqrt = [](std::uint64_t v) {
        std::uint64_t r = 0;
        while ((r + 1) * (r + 1) <= v) ++r;
        return r;
    };
    for (int trial = 0; trial < 150; ++trial) {
        const std::uint64_t a = rng() & ((std::uint64_t{1} << (2 * root_bits)) - 1);
        io.set_bus("a", 2 * root_bits, a);
        io.run();
        const std::uint64_t root = isqrt(a);
        EXPECT_EQ(io.get_bus("root", root_bits), root) << "a=" << a;
        EXPECT_EQ(io.get_bus("rem", root_bits + 1), a - root * root) << "a=" << a;
    }
    // Corners: 0, 1, perfect squares, max.
    for (const std::uint64_t a :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xff01},
          (std::uint64_t{1} << (2 * root_bits)) - 1}) {
        io.set_bus("a", 2 * root_bits, a);
        io.run();
        EXPECT_EQ(io.get_bus("root", root_bits), isqrt(a)) << "a=" << a;
    }
}

}  // namespace
}  // namespace bdsmaj::benchgen
