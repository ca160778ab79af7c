#pragma once
// The benchmark's own output check, written against the BLIF text only so
// it shares no code with the synthesis program it judges: a small BLIF
// reader, a bit-parallel evaluator (64 patterns per word), and integer
// oracles for the arithmetic generators' port conventions (bit i of bus
// "a" is the signal "a<i>").

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// One parsed BLIF model: inputs, outputs and `.names` covers by signal.
class BlifModel {
public:
    /// Throws std::runtime_error on text this reader does not understand.
    explicit BlifModel(const std::string& text);

    [[nodiscard]] const std::vector<std::string>& inputs() const { return inputs_; }
    [[nodiscard]] const std::vector<std::string>& outputs() const { return outputs_; }

    /// Evaluate every output on 64 patterns at once; `input_words` holds one
    /// word per name in inputs(), bit j being pattern j.
    [[nodiscard]] std::unordered_map<std::string, std::uint64_t> eval(
        const std::unordered_map<std::string, std::uint64_t>& input_words) const;

private:
    struct Cover {
        std::vector<std::string> fanins;
        std::vector<std::string> cubes;  ///< one char per fanin: '0' '1' '-'
        bool onset = true;               ///< false: cubes list the off-set
    };
    std::vector<std::string> inputs_;
    std::vector<std::string> outputs_;
    std::unordered_map<std::string, Cover> covers_;
};

/// Integer function of a datapath generator, applied per pattern.
enum class Arith { kNone, kMult, kMac, kDiv, kSqrt, kRecip, kAdd, kAdd4 };

/// Compare `out_blif` against `in_blif` on `rounds` x 64 seeded random
/// patterns (matched by port name), and, for arithmetic circuits, both
/// against the integer function on patterns whose operands keep it
/// defined (non-zero divisors). Returns an empty string when everything
/// agrees, else a description of the first mismatch.
[[nodiscard]] std::string check_output(const std::string& in_blif,
                                       const std::string& out_blif, Arith arith,
                                       int width, int rounds, std::uint64_t seed);

}  // namespace perfbench
