#include "check.hpp"

#include <functional>
#include <random>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::vector<std::string> split_ws(const std::string& line) {
    std::istringstream is(line);
    std::vector<std::string> out;
    for (std::string tok; is >> tok;) out.push_back(tok);
    return out;
}

/// Logical lines with '\' continuations joined and comments dropped.
std::vector<std::string> logical_lines(const std::string& text) {
    std::vector<std::string> out;
    std::istringstream is(text);
    std::string pending;
    for (std::string line; std::getline(is, line);) {
        if (const auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
        if (!line.empty() && line.back() == '\\') {
            pending += line.substr(0, line.size() - 1) + " ";
            continue;
        }
        pending += line;
        if (pending.find_first_not_of(" \t\r") != std::string::npos) out.push_back(pending);
        pending.clear();
    }
    if (!pending.empty()) out.push_back(pending);
    return out;
}

std::uint64_t mask_bits(int bits) {
    return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

std::uint64_t isqrt(std::uint64_t v) {
    std::uint64_t r = 0;
    for (std::uint64_t bit = std::uint64_t{1} << 62; bit != 0; bit >>= 2) {
        if (v >= r + bit) {
            v -= r + bit;
            r = (r >> 1) + bit;
        } else {
            r >>= 1;
        }
    }
    return r;
}

/// A bus: `width` signals "<name><i>", or the single signal "<name>" when
/// `scalar`.
struct Port {
    std::string name;
    int width = 1;
    bool scalar = false;
    [[nodiscard]] std::string bit(int i) const {
        return scalar ? name : name + std::to_string(i);
    }
};

using Values = std::unordered_map<std::string, std::uint64_t>;

struct ArithSpec {
    std::vector<Port> operands;
    std::vector<Port> results;
    /// Operand values that keep the function defined (e.g. divisor != 0).
    std::function<bool(const Values&)> valid;
    std::function<Values(const Values&)> apply;
};

ArithSpec arith_spec(Arith arith, int w) {
    const auto always = [](const Values&) { return true; };
    switch (arith) {
        case Arith::kMult:
            return {{{"a", w}, {"b", w}}, {{"p", 2 * w}}, always,
                    [](const Values& v) { return Values{{"p", v.at("a") * v.at("b")}}; }};
        case Arith::kMac:
            return {{{"a", w}, {"b", w}, {"acc", 2 * w}},
                    {{"m", 2 * w}, {"mcout", 1, true}},
                    always,
                    [w](const Values& v) {
                        const std::uint64_t s = v.at("a") * v.at("b") + v.at("acc");
                        return Values{{"m", s & mask_bits(2 * w)}, {"mcout", s >> (2 * w)}};
                    }};
        case Arith::kDiv:
            return {{{"n", w}, {"d", w}},
                    {{"q", w}, {"r", w}},
                    [](const Values& v) { return v.at("d") != 0; },
                    [](const Values& v) {
                        return Values{{"q", v.at("n") / v.at("d")},
                                      {"r", v.at("n") % v.at("d")}};
                    }};
        case Arith::kSqrt:  // w = root bits, operand 2w bits
            return {{{"a", 2 * w}},
                    {{"root", w}, {"rem", w + 1}},
                    always,
                    [](const Values& v) {
                        const std::uint64_t r = isqrt(v.at("a"));
                        return Values{{"root", r}, {"rem", v.at("a") - r * r}};
                    }};
        case Arith::kRecip:
            return {{{"x", w}},
                    {{"y", w}},
                    [](const Values& v) { return v.at("x") != 0; },
                    [w](const Values& v) {
                        const std::uint64_t dividend = std::uint64_t{1} << (2 * w - 2);
                        return Values{{"y", (dividend / v.at("x")) & mask_bits(w)}};
                    }};
        case Arith::kAdd:
            return {{{"a", w}, {"b", w}, {"cin", 1, true}},
                    {{"s", w}, {"cout", 1, true}},
                    always,
                    [w](const Values& v) {
                        // 128-bit sum: the carry out of a 64-bit adder.
                        const unsigned __int128 s = static_cast<unsigned __int128>(v.at("a")) +
                                                    v.at("b") + v.at("cin");
                        return Values{{"s", static_cast<std::uint64_t>(s) & mask_bits(w)},
                                      {"cout", static_cast<std::uint64_t>(s >> w)}};
                    }};
        case Arith::kAdd4:
            return {{{"a", w}, {"b", w}, {"c", w}, {"d", w}},
                    {{"s", w + 2}, {"cout", 1, true}},
                    always,
                    [w](const Values& v) {
                        const std::uint64_t s = v.at("a") + v.at("b") + v.at("c") + v.at("d");
                        return Values{{"s", s & mask_bits(w + 2)}, {"cout", s >> (w + 2)}};
                    }};
        case Arith::kNone:
            break;
    }
    throw std::logic_error("no arithmetic spec");
}

std::string compare_words(const BlifModel& ref, const Values& want, const Values& got,
                          const std::string& what) {
    for (const std::string& po : ref.outputs()) {
        const auto g = got.find(po);
        if (g == got.end()) return what + ": output " + po + " missing";
        if (g->second != want.at(po)) return what + ": output " + po + " differs";
    }
    return {};
}

}  // namespace

BlifModel::BlifModel(const std::string& text) {
    Cover* current = nullptr;
    for (const std::string& line : logical_lines(text)) {
        std::vector<std::string> tok = split_ws(line);
        if (tok[0][0] == '.') {
            current = nullptr;
            if (tok[0] == ".inputs") {
                inputs_.insert(inputs_.end(), tok.begin() + 1, tok.end());
            } else if (tok[0] == ".outputs") {
                outputs_.insert(outputs_.end(), tok.begin() + 1, tok.end());
            } else if (tok[0] == ".names") {
                if (tok.size() < 2) throw std::runtime_error("bare .names");
                const std::string target = tok.back();
                Cover cover;
                cover.fanins.assign(tok.begin() + 1, tok.end() - 1);
                current = &(covers_[target] = std::move(cover));
            } else if (tok[0] != ".model" && tok[0] != ".end") {
                throw std::runtime_error("unsupported directive " + tok[0]);
            }
            continue;
        }
        if (current == nullptr) throw std::runtime_error("cube outside .names");
        const bool constant = current->fanins.empty();
        const std::string cube = constant ? "" : tok[0];
        const std::string value = constant ? tok[0] : (tok.size() > 1 ? tok[1] : "");
        if (cube.size() != current->fanins.size() || (value != "0" && value != "1")) {
            throw std::runtime_error("bad cube line: " + line);
        }
        if (!current->cubes.empty() && current->onset != (value == "1")) {
            throw std::runtime_error("mixed on/off-set cover");
        }
        current->onset = value == "1";
        current->cubes.push_back(cube);
    }
}

Values BlifModel::eval(const Values& input_words) const {
    Values val;
    for (const std::string& pi : inputs_) val[pi] = input_words.at(pi);
    // Iterative post-order over the covers reachable from the outputs.
    std::vector<std::pair<const std::string*, std::size_t>> stack;
    for (const std::string& po : outputs_) {
        if (val.count(po)) continue;
        stack.push_back({&po, 0});
        while (!stack.empty()) {
            auto& [name, next] = stack.back();
            const auto it = covers_.find(*name);
            if (it == covers_.end()) throw std::runtime_error("undriven signal " + *name);
            const Cover& c = it->second;
            if (next < c.fanins.size()) {
                const std::string& f = c.fanins[next++];
                if (!val.count(f)) stack.push_back({&f, 0});
                continue;
            }
            std::uint64_t any = 0;
            for (const std::string& cube : c.cubes) {
                std::uint64_t term = ~std::uint64_t{0};
                for (std::size_t i = 0; i < cube.size(); ++i) {
                    const std::uint64_t x = val.at(c.fanins[i]);
                    if (cube[i] == '1') term &= x;
                    if (cube[i] == '0') term &= ~x;
                }
                any |= term;
            }
            val[*name] = c.onset ? any : ~any;
            stack.pop_back();
        }
    }
    Values out;
    for (const std::string& po : outputs_) out[po] = val.at(po);
    return out;
}

std::string check_output(const std::string& in_blif, const std::string& out_blif,
                         Arith arith, int width, int rounds, std::uint64_t seed) {
    const BlifModel ref(in_blif);
    const BlifModel got(out_blif);
    if (got.inputs() != ref.inputs()) return "primary inputs differ";
    if (got.outputs() != ref.outputs()) return "primary outputs differ";
    std::mt19937_64 rng(seed);
    for (int round = 0; round < rounds; ++round) {
        Values words;
        for (const std::string& pi : ref.inputs()) words[pi] = rng();
        const std::string err = compare_words(ref, ref.eval(words), got.eval(words),
                                              "random round " + std::to_string(round));
        if (!err.empty()) return err;
    }
    if (arith == Arith::kNone) return {};

    const ArithSpec spec = arith_spec(arith, width);
    for (int round = 0; round < rounds; ++round) {
        Values words;
        std::vector<Values> expected(64);
        for (int j = 0; j < 64; ++j) {
            Values ops;
            do {
                for (const Port& p : spec.operands) ops[p.name] = rng() & mask_bits(p.width);
            } while (!spec.valid(ops));
            for (const Port& p : spec.operands) {
                for (int i = 0; i < p.width; ++i) {
                    words[p.bit(i)] |= ((ops[p.name] >> i) & 1u) << j;
                }
            }
            expected[j] = spec.apply(ops);
        }
        const Values ref_out = ref.eval(words);
        const Values got_out = got.eval(words);
        for (const Port& p : spec.results) {
            for (int i = 0; i < p.width; ++i) {
                const std::string bit = p.bit(i);
                for (int j = 0; j < 64; ++j) {
                    const std::uint64_t want = (expected[j].at(p.name) >> i) & 1u;
                    if (((ref_out.at(bit) >> j) & 1u) != want) {
                        return "input differs from integer arithmetic at " + bit;
                    }
                    if (((got_out.at(bit) >> j) & 1u) != want) {
                        return "output differs from integer arithmetic at " + bit;
                    }
                }
            }
        }
    }
    return {};
}

}  // namespace perfbench
