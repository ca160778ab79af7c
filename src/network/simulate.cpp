#include "network/simulate.hpp"

#include <bit>
#include <sstream>
#include <stdexcept>

namespace bdsmaj::net {

const char* equiv_engine_name(EquivEngine engine) {
    switch (engine) {
        case EquivEngine::kAuto: return "auto";
        case EquivEngine::kBdd: return "bdd";
        case EquivEngine::kSat: return "sat";
        case EquivEngine::kSim: return "sim";
    }
    return "?";
}

EquivEngine parse_equiv_engine(const std::string& name) {
    if (name == "auto") return EquivEngine::kAuto;
    if (name == "bdd") return EquivEngine::kBdd;
    if (name == "sat") return EquivEngine::kSat;
    if (name == "sim") return EquivEngine::kSim;
    throw std::invalid_argument("unknown equivalence engine \"" + name +
                                "\" (expected auto|bdd|sat|sim)");
}

std::string describe_counterexample(const Network& a, int output_index,
                                    const std::vector<bool>& pattern,
                                    bool value_a, bool value_b) {
    std::ostringstream os;
    os << "output " << a.outputs()[static_cast<std::size_t>(output_index)].name
       << " (index " << output_index << ") differs: a=" << (value_a ? 1 : 0)
       << " b=" << (value_b ? 1 : 0) << " under";
    constexpr std::size_t kMaxListed = 48;
    for (std::size_t i = 0; i < pattern.size() && i < kMaxListed; ++i) {
        os << ' ' << a.node(a.inputs()[i]).name << '=' << (pattern[i] ? 1 : 0);
    }
    if (pattern.size() > kMaxListed) {
        os << " ... (" << pattern.size() - kMaxListed << " more)";
    }
    return os.str();
}

EquivalenceResult verified_counterexample(const Network& a, const Network& b,
                                          int output_index,
                                          std::vector<bool> pattern,
                                          const char* origin,
                                          EquivEngine engine) {
    // Sign the witness by single-pattern re-simulation of both networks:
    // whatever engine produced it, the verdict the caller sees is backed
    // by the reference simulator.
    const std::vector<bool> va = simulate(a, pattern);
    const std::vector<bool> vb = simulate(b, pattern);
    const std::size_t o = static_cast<std::size_t>(output_index);
    if (va[o] == vb[o]) {
        throw std::logic_error(std::string("equivalence checker bug: ") + origin +
                               " counterexample failed re-simulation");
    }
    EquivalenceResult r;
    r.equivalent = false;
    r.exact = true;
    r.engine = engine;
    r.failing_output = output_index;
    r.reason = describe_counterexample(a, output_index, pattern, va[o], vb[o]);
    r.counterexample = std::move(pattern);
    return r;
}

namespace {

EquivalenceResult shape_mismatch(std::string reason, EquivEngine engine) {
    EquivalenceResult r;
    r.equivalent = false;
    r.exact = true;  // structural: no input pattern needed
    r.engine = engine;
    r.reason = std::move(reason);
    return r;
}

}  // namespace

void simulate_words_into(const Network& network, const std::vector<NodeId>& order,
                         const std::vector<std::uint64_t>& pi_words,
                         std::vector<std::uint64_t>& value,
                         std::vector<std::uint64_t>& fanin_words) {
    value.assign(network.node_count(), 0);
    for (std::size_t i = 0; i < pi_words.size(); ++i) {
        value[network.inputs()[i]] = pi_words[i];
    }
    for (const NodeId id : order) {
        const Node& n = network.node(id);
        if (n.kind == GateKind::kInput) continue;
        value[id] = eval_node_word(
            n, [&](std::size_t k) { return value[n.fanins[k]]; }, fanin_words);
    }
}

std::vector<std::uint64_t> simulate_words(const Network& network,
                                          const std::vector<std::uint64_t>& pi_words) {
    if (pi_words.size() != network.inputs().size()) {
        throw std::invalid_argument("simulate_words: stimulus count != PI count");
    }
    const std::vector<NodeId> order = network.topo_order();
    std::vector<std::uint64_t> value, fanin_words;
    simulate_words_into(network, order, pi_words, value, fanin_words);
    std::vector<std::uint64_t> out;
    out.reserve(network.outputs().size());
    for (const OutputPort& po : network.outputs()) out.push_back(value[po.driver]);
    return out;
}

std::vector<bool> simulate(const Network& network, const std::vector<bool>& pi_values) {
    std::vector<std::uint64_t> words(pi_values.size());
    for (std::size_t i = 0; i < pi_values.size(); ++i) {
        words[i] = pi_values[i] ? ~std::uint64_t{0} : 0;
    }
    const std::vector<std::uint64_t> out_words = simulate_words(network, words);
    std::vector<bool> out(out_words.size());
    for (std::size_t i = 0; i < out_words.size(); ++i) out[i] = (out_words[i] & 1) != 0;
    return out;
}

EquivalenceResult random_equivalent(const Network& a, const Network& b, int rounds,
                                    std::uint64_t seed) {
    if (a.inputs().size() != b.inputs().size()) {
        return shape_mismatch("input counts differ", EquivEngine::kSim);
    }
    if (a.outputs().size() != b.outputs().size()) {
        return shape_mismatch("output counts differ", EquivEngine::kSim);
    }
    std::mt19937_64 rng(seed);
    std::vector<std::uint64_t> stimulus(a.inputs().size());
    // Hoisted out of the round loop: the topological orders and the value
    // buffers; outputs are compared in place.
    const std::vector<NodeId> order_a = a.topo_order();
    const std::vector<NodeId> order_b = b.topo_order();
    std::vector<std::uint64_t> value_a, value_b, fanin_words;
    for (int round = 0; round < rounds; ++round) {
        for (auto& w : stimulus) w = rng();
        simulate_words_into(a, order_a, stimulus, value_a, fanin_words);
        simulate_words_into(b, order_b, stimulus, value_b, fanin_words);
        for (std::size_t o = 0; o < a.outputs().size(); ++o) {
            const std::uint64_t diff = value_a[a.outputs()[o].driver] ^
                                       value_b[b.outputs()[o].driver];
            if (diff != 0) {
                const int bit = std::countr_zero(diff);
                std::vector<bool> pattern(stimulus.size());
                for (std::size_t i = 0; i < stimulus.size(); ++i) {
                    pattern[i] = ((stimulus[i] >> bit) & 1) != 0;
                }
                return verified_counterexample(a, b, static_cast<int>(o),
                                               std::move(pattern), "simulation",
                                               EquivEngine::kSim);
            }
        }
    }
    EquivalenceResult r;
    r.equivalent = true;
    r.exact = false;  // sampled agreement only — never a proof
    r.engine = EquivEngine::kSim;
    return r;
}

std::vector<bdd::Bdd> network_to_bdds(const Network& network, bdd::Manager& mgr) {
    while (mgr.num_vars() < static_cast<int>(network.inputs().size())) {
        (void)mgr.new_var();
    }
    std::vector<bdd::Bdd> value(network.node_count());
    for (std::size_t i = 0; i < network.inputs().size(); ++i) {
        value[network.inputs()[i]] = mgr.var_bdd(static_cast<int>(i));
    }
    for (const NodeId id : network.topo_order()) {
        const Node& n = network.node(id);
        const auto in = [&](std::size_t k) -> const bdd::Bdd& {
            return value[n.fanins[k]];
        };
        switch (n.kind) {
            case GateKind::kInput: break;
            case GateKind::kConst0: value[id] = mgr.zero(); break;
            case GateKind::kConst1: value[id] = mgr.one(); break;
            case GateKind::kBuf: value[id] = in(0); break;
            case GateKind::kNot: value[id] = !in(0); break;
            case GateKind::kAnd: value[id] = mgr.apply_and(in(0), in(1)); break;
            case GateKind::kOr: value[id] = mgr.apply_or(in(0), in(1)); break;
            case GateKind::kNand: value[id] = !mgr.apply_and(in(0), in(1)); break;
            case GateKind::kNor: value[id] = !mgr.apply_or(in(0), in(1)); break;
            case GateKind::kXor: value[id] = mgr.apply_xor(in(0), in(1)); break;
            case GateKind::kXnor: value[id] = mgr.apply_xnor(in(0), in(1)); break;
            case GateKind::kMaj: value[id] = mgr.maj(in(0), in(1), in(2)); break;
            case GateKind::kMux: value[id] = mgr.ite(in(0), in(1), in(2)); break;
            case GateKind::kSop:
                value[id] = sop_to_bdd(mgr, n.sop, in);
                break;
        }
    }
    std::vector<bdd::Bdd> outs;
    outs.reserve(network.outputs().size());
    for (const OutputPort& po : network.outputs()) outs.push_back(value[po.driver]);
    return outs;
}

EquivalenceResult bdd_equivalent(const Network& a, const Network& b) {
    if (a.inputs().size() != b.inputs().size()) {
        return shape_mismatch("input counts differ", EquivEngine::kBdd);
    }
    if (a.outputs().size() != b.outputs().size()) {
        return shape_mismatch("output counts differ", EquivEngine::kBdd);
    }
    bdd::Manager mgr(static_cast<int>(a.inputs().size()));
    const std::vector<bdd::Bdd> fa = network_to_bdds(a, mgr);
    const std::vector<bdd::Bdd> fb = network_to_bdds(b, mgr);
    for (std::size_t o = 0; o < fa.size(); ++o) {
        if (!(fa[o] == fb[o])) {
            // Walk the difference function down to a satisfying minterm:
            // at each variable take any cofactor that stays satisfiable.
            bdd::Bdd diff = mgr.apply_xor(fa[o], fb[o]);
            std::vector<bool> pattern(a.inputs().size(), false);
            for (int v = 0; v < static_cast<int>(a.inputs().size()); ++v) {
                const bdd::Bdd lo = mgr.cofactor(diff, v, false);
                if (!(lo == mgr.zero())) {
                    pattern[static_cast<std::size_t>(v)] = false;
                    diff = lo;
                } else {
                    pattern[static_cast<std::size_t>(v)] = true;
                    diff = mgr.cofactor(diff, v, true);
                }
            }
            return verified_counterexample(a, b, static_cast<int>(o),
                                           std::move(pattern), "BDD",
                                           EquivEngine::kBdd);
        }
    }
    EquivalenceResult r;
    r.equivalent = true;
    r.exact = true;
    r.engine = EquivEngine::kBdd;
    return r;
}

}  // namespace bdsmaj::net
