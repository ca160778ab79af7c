#include "network/blif.hpp"

#include <gtest/gtest.h>

#include <random>

#include "network/cec.hpp"
#include "network/simulate.hpp"

namespace bdsmaj::net {
namespace {

constexpr const char* kFullAdderBlif = R"(
# a 1-bit full adder
.model fa
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
)";

TEST(Blif, ParsesFullAdder) {
    const Network net = parse_blif(kFullAdderBlif);
    EXPECT_EQ(net.model_name(), "fa");
    ASSERT_EQ(net.inputs().size(), 3u);
    ASSERT_EQ(net.outputs().size(), 2u);
    for (int m = 0; m < 8; ++m) {
        const bool a = m & 1, b = (m >> 1) & 1, c = (m >> 2) & 1;
        const auto out = simulate(net, {a, b, c});
        EXPECT_EQ(out[0], ((a + b + c) & 1) != 0);
        EXPECT_EQ(out[1], (a + b + c) >= 2);
    }
}

TEST(Blif, RoundTripPreservesFunction) {
    const Network net = parse_blif(kFullAdderBlif);
    const Network again = parse_blif(write_blif(net));
    EXPECT_TRUE(bdd_equivalent(net, again).equivalent);
}

TEST(Blif, LineContinuationsAndComments) {
    const Network net = parse_blif(
        ".model cont\n"
        ".inputs a \\\n  b\n"
        ".outputs y # trailing comment\n"
        ".names a b y\n"
        "11 1\n"
        ".end\n");
    EXPECT_EQ(net.inputs().size(), 2u);
    EXPECT_EQ(simulate(net, {true, true})[0], true);
    EXPECT_EQ(simulate(net, {true, false})[0], false);
}

TEST(Blif, OffsetPhaseCoverIsComplemented) {
    // Cover written in the 0 phase: y = NOT(a & b).
    const Network net = parse_blif(
        ".model off\n.inputs a b\n.outputs y\n"
        ".names a b y\n11 0\n.end\n");
    EXPECT_EQ(simulate(net, {true, true})[0], false);
    EXPECT_EQ(simulate(net, {false, true})[0], true);
}

TEST(Blif, ConstantNodes) {
    const Network net = parse_blif(
        ".model consts\n.inputs a\n.outputs one zero\n"
        ".names one\n1\n"
        ".names zero\n"
        ".end\n");
    const auto out = simulate(net, {false});
    EXPECT_TRUE(out[0]);
    EXPECT_FALSE(out[1]);
}

TEST(Blif, OutOfOrderBlocksResolve) {
    // g references h which is defined later.
    const Network net = parse_blif(
        ".model ooo\n.inputs a b\n.outputs g\n"
        ".names h a g\n11 1\n"
        ".names a b h\n10 1\n01 1\n"
        ".end\n");
    // g = (a^b) & a = a & !b.
    EXPECT_TRUE(simulate(net, {true, false})[0]);
    EXPECT_FALSE(simulate(net, {true, true})[0]);
}

TEST(Blif, ErrorsAreDiagnosed) {
    EXPECT_THROW((void)parse_blif(".model x\n.inputs a\n.outputs y\n.end\n"),
                 std::runtime_error);  // undriven output
    EXPECT_THROW((void)parse_blif(".model x\n.latch a b\n.end\n"),
                 std::runtime_error);  // sequential
    EXPECT_THROW((void)parse_blif("11 1\n"), std::runtime_error);  // stray cube
    EXPECT_THROW((void)parse_blif(".model x\n.inputs a\n.outputs y\n"
                                  ".names a y\n1 1\nq 1\n.end\n"),
                 std::exception);  // bad cube char (invalid_argument)
}

TEST(Blif, MixedPhaseCoversRejected) {
    EXPECT_THROW((void)parse_blif(".model x\n.inputs a b\n.outputs y\n"
                                  ".names a b y\n11 1\n00 0\n.end\n"),
                 std::runtime_error);
}

// Malformed-input hardening: every defect is rejected with a ParseError
// carrying the offending 1-based line, never UB, an assert, or a wrong
// network.

namespace {

// Expects parse_blif(text) to throw ParseError at `line` with `needle`
// somewhere in the message.
void expect_parse_error(const std::string& text, int line,
                        const std::string& needle) {
    try {
        (void)parse_blif(text);
        FAIL() << "expected ParseError(" << needle << ") for:\n" << text;
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), line) << e.what();
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

}  // namespace

TEST(BlifRobustness, TruncatedContinuationRejected) {
    expect_parse_error(".model t\n.inputs a b\n.outputs y\n.names a b \\",
                       4, "truncated");
}

TEST(BlifRobustness, UndeclaredSignalNamed) {
    expect_parse_error(
        ".model u\n.inputs a\n.outputs y\n.names a bogus y\n11 1\n.end\n",
        4, "undeclared signal 'bogus'");
}

TEST(BlifRobustness, DuplicateOutputRejected) {
    expect_parse_error(
        ".model d\n.inputs a\n.outputs y y\n.names a y\n1 1\n.end\n",
        3, "duplicate output declaration 'y'");
}

TEST(BlifRobustness, DuplicateInputRejected) {
    expect_parse_error(".model d\n.inputs a a\n.outputs y\n.end\n",
                       2, "duplicate input declaration 'a'");
}

TEST(BlifRobustness, DuplicateDriverRejected) {
    expect_parse_error(
        ".model d\n.inputs a b\n.outputs y\n"
        ".names a y\n1 1\n.names b y\n1 1\n.end\n",
        6, "duplicate driver for signal 'y'");
}

TEST(BlifRobustness, NamesRedefiningInputRejected) {
    expect_parse_error(
        ".model d\n.inputs a b\n.outputs b\n.names a b\n1 1\n.end\n",
        4, "redefines primary input 'b'");
}

TEST(BlifRobustness, OversizedCubeRejected) {
    // 3 literals against a 2-input block: previously this flowed into the
    // SOP layer with a wrong-length pattern; now it is a diagnosed error.
    expect_parse_error(
        ".model o\n.inputs a b\n.outputs y\n.names a b y\n111 1\n.end\n",
        5, "3 literals for a 2-input .names block");
}

TEST(BlifRobustness, UndersizedCubeRejected) {
    expect_parse_error(
        ".model o\n.inputs a b c\n.outputs y\n.names a b c y\n10 1\n.end\n",
        5, "2 literals for a 3-input .names block");
}

TEST(BlifRobustness, BadCubeCharacterDiagnosedWithLine) {
    expect_parse_error(
        ".model o\n.inputs a b\n.outputs y\n.names a b y\n11 1\n1q 1\n.end\n",
        6, "bad cube character 'q'");
}

TEST(BlifRobustness, CombinationalCycleDiagnosed) {
    expect_parse_error(
        ".model c\n.inputs a\n.outputs y\n"
        ".names z a y\n11 1\n.names y a z\n11 1\n.end\n",
        4, "cycle");
}

TEST(BlifRobustness, ContinuationLineNumbersPointAtFirstPhysicalLine) {
    // The bad cube sits on physical lines 5-6 via a continuation; the
    // diagnostic must name line 5 (where the logical line starts).
    expect_parse_error(
        ".model c\n.inputs a b\n.outputs y\n.names a b y\n1 \\\n1 1\n.end\n",
        5, "bad cube line");
}

TEST(BlifRobustness, PrefixTruncationsNeverCrash) {
    // Fuzz-style: every prefix of a valid document either parses or raises
    // ParseError — nothing else may escape (UB/asserts would abort).
    const std::string text = kFullAdderBlif;
    for (std::size_t n = 0; n <= text.size(); ++n) {
        try {
            (void)parse_blif(text.substr(0, n));
        } catch (const ParseError&) {
        }
    }
}

TEST(BlifRobustness, RandomByteMutationsNeverCrash) {
    // Fuzz-style: single printable-byte corruptions of a valid document
    // must parse or raise ParseError.
    const std::string base = kFullAdderBlif;
    std::mt19937_64 rng(4242);
    constexpr const char* kAlphabet =
        "01-\\.# abcdefghijklmnopqrstuvwxyz";
    const std::size_t alphabet_len = std::string(kAlphabet).size();
    for (int trial = 0; trial < 500; ++trial) {
        std::string text = base;
        text[rng() % text.size()] =
            kAlphabet[rng() % alphabet_len];
        try {
            (void)parse_blif(text);
        } catch (const ParseError&) {
        }
    }
}

TEST(Blif, RandomNetworksRoundTrip) {
    std::mt19937_64 rng(601);
    for (int trial = 0; trial < 10; ++trial) {
        Network net(std::string("rt").append(std::to_string(trial)));
        std::vector<NodeId> pool;
        for (int i = 0; i < 5; ++i) {
            pool.push_back(net.add_input(std::string("i").append(std::to_string(i))));
        }
        for (int g = 0; g < 30; ++g) {
            const auto pick = [&] { return pool[rng() % pool.size()]; };
            const int kind = static_cast<int>(rng() % 7);
            NodeId id = 0;
            switch (kind) {
                case 0: id = net.add_and(pick(), pick()); break;
                case 1: id = net.add_or(pick(), pick()); break;
                case 2: id = net.add_xor(pick(), pick()); break;
                case 3: id = net.add_not(pick()); break;
                case 4: id = net.add_maj(pick(), pick(), pick()); break;
                case 5: id = net.add_mux(pick(), pick(), pick()); break;
                default: id = net.add_xnor(pick(), pick()); break;
            }
            pool.push_back(id);
        }
        for (int o = 0; o < 4; ++o) {
            net.add_output(std::string("o").append(std::to_string(o)),
                           pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
        }
        const Network again = parse_blif(write_blif(net));
        EXPECT_TRUE(bdd_equivalent(net, again).equivalent) << "trial " << trial;
    }
}

}  // namespace
}  // namespace bdsmaj::net
