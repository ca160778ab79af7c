// The local mapping certificate (mapping/certify.hpp) against the global
// equivalence checker: it must prove every mapping the four flows produce
// on the quick suite and the small arithmetic generators, and the mapping
// of each raw input, agree with the global verdict there, and never accept
// a mapping broken on purpose.

#include "mapping/certify.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "benchgen/arith.hpp"
#include "benchgen/suite.hpp"
#include "flows/flows.hpp"
#include "network/cec.hpp"
#include "network/simulate.hpp"

namespace bdsmaj::mapping {
namespace {

using net::GateKind;
using net::Network;
using net::NodeId;

struct CrossCheckCase {
    std::string name;
    std::function<Network()> make;
};

// ctest names carry gtest's print of the parameter; print the name, not
// the object's bytes, so the names are the same in every build.
void PrintTo(const CrossCheckCase& c, std::ostream* os) { *os << c.name; }

std::vector<CrossCheckCase> cross_check_cases() {
    std::vector<CrossCheckCase> cases;
    for (const std::string& name : benchgen::benchmark_names()) {
        cases.push_back({"quick_" + name,
                         [name] { return benchgen::benchmark_by_name(name, /*quick=*/true); }});
    }
    cases.push_back({"ripple8", [] { return benchgen::make_ripple_adder(8); }});
    cases.push_back({"cla8", [] { return benchgen::make_cla_adder(8); }});
    cases.push_back({"add4op8", [] { return benchgen::make_four_operand_adder(8); }});
    cases.push_back({"arraymult8", [] { return benchgen::make_array_multiplier(8); }});
    cases.push_back({"wallace8", [] { return benchgen::make_wallace_multiplier(8); }});
    cases.push_back({"mac8", [] { return benchgen::make_mac(8); }});
    cases.push_back({"div8", [] { return benchgen::make_restoring_divider(8); }});
    cases.push_back({"recip8", [] { return benchgen::make_reciprocal(8); }});
    cases.push_back({"sqrt8", [] { return benchgen::make_sqrt(8); }});
    return cases;
}

class CertificateCrossCheck : public ::testing::TestWithParam<CrossCheckCase> {};

TEST_P(CertificateCrossCheck, ProvesEveryFlowAndAgreesWithGlobalCec) {
    const Network input = GetParam().make();
    for (const flows::SynthesisResult& r : flows::run_all_flows(input)) {
        const MappingCertificate cert = certify_mapping(r.optimized, r.mapped);
        EXPECT_TRUE(cert.complete())
            << r.flow_name << ": " << cert.inconclusive << " inconclusive";
        EXPECT_GT(cert.certified_nodes, 0) << r.flow_name;
        const net::EquivalenceResult eq = net::check_equivalent(input, r.mapped.netlist);
        EXPECT_TRUE(eq.equivalent) << r.flow_name << ": " << eq.reason;
    }
    // Mapped raw, the input still holds logic that cleanup folds to
    // constants (MAJ(x, 0, 0), AND(a, !a), source constants); the
    // certificate proves it constant instead of giving up above it.
    const MappingCertificate raw =
        certify_mapping(input, map_network(input, flows::default_library()));
    EXPECT_TRUE(raw.complete()) << "raw: " << raw.inconclusive << " inconclusive";
    EXPECT_GT(raw.certified_nodes, 0) << "raw";
}

INSTANTIATE_TEST_SUITE_P(
    QuickSuiteAndArith, CertificateCrossCheck, ::testing::ValuesIn(cross_check_cases()),
    [](const ::testing::TestParamInfo<CrossCheckCase>& info) {
        std::string name = info.param.name;
        for (char& c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
        }
        return name;
    });

/// `mapped` with an inverter inserted on pin `pin` of `cell`. Node ids past
/// the cell shift by one; node_map and complements follow them.
MappedResult with_inverted_pin(const MappedResult& mapped, NodeId cell, std::size_t pin) {
    MappedResult out = mapped;
    const Network& in = mapped.netlist;
    Network net(in.model_name());
    std::vector<NodeId> remap(in.node_count(), net::kNoNode);
    for (NodeId id = 0; id < in.node_count(); ++id) {
        const net::Node& n = in.node(id);
        if (n.kind == GateKind::kInput) {
            remap[id] = net.add_input(n.name);
        } else if (n.kind == GateKind::kConst0 || n.kind == GateKind::kConst1) {
            remap[id] = net.add_constant(n.kind == GateKind::kConst1);
        } else {
            std::vector<NodeId> fanins;
            for (const NodeId f : n.fanins) fanins.push_back(remap[f]);
            if (id == cell) fanins[pin] = net.add_not(fanins[pin]);
            remap[id] = net.add_gate(n.kind, fanins, n.name);
        }
    }
    for (const net::OutputPort& po : in.outputs()) net.add_output(po.name, remap[po.driver]);
    for (net::Signal& s : out.node_map) {
        if (s.node != net::kNoNode) s.node = remap[s.node];
    }
    for (auto& [node, comp] : out.complements) {
        node = remap[node];
        comp = remap[comp];
    }
    out.netlist = std::move(net);
    return out;
}

/// Unsound variants of `mapped`, at most `per_kind` of each kind: a
/// XOR<->XNOR or NAND<->NOR swap, a bypassed INV (it becomes a buffer), and
/// one complemented MAJ pin.
std::vector<MappedResult> mutants(const MappedResult& mapped, int per_kind) {
    std::vector<MappedResult> out;
    int swaps = 0, bypasses = 0, maj_pins = 0;
    for (NodeId id = 0; id < mapped.netlist.node_count(); ++id) {
        const GateKind kind = mapped.netlist.node(id).kind;
        GateKind swapped = kind;
        if (kind == GateKind::kXor) swapped = GateKind::kXnor;
        if (kind == GateKind::kXnor) swapped = GateKind::kXor;
        if (kind == GateKind::kNand) swapped = GateKind::kNor;
        if (kind == GateKind::kNor) swapped = GateKind::kNand;
        if (swapped != kind && swaps < per_kind) {
            ++swaps;
            out.push_back(mapped);
            out.back().netlist.node(id).kind = swapped;
        }
        if (kind == GateKind::kNot && bypasses < per_kind) {
            ++bypasses;
            out.push_back(mapped);
            out.back().netlist.node(id).kind = GateKind::kBuf;
        }
        if (kind == GateKind::kMaj && maj_pins < per_kind) {
            out.push_back(with_inverted_pin(mapped, id, static_cast<std::size_t>(maj_pins % 3)));
            ++maj_pins;
        }
    }
    return out;
}

TEST(Certificate, RefutesUnsoundMappings) {
    struct Subject {
        Network input;
        const char* flow;  ///< nullptr: map the raw input, constants and all
    };
    const std::vector<Subject> subjects = {
        {benchgen::make_ripple_adder(6), "bdsmaj"},
        {benchgen::make_wallace_multiplier(4), "bdsmaj"},
        {benchgen::make_wallace_multiplier(4), "abc"},
        {benchgen::benchmark_by_name("f51m", /*quick=*/true), "dc"},
        {benchgen::make_wallace_multiplier(4), nullptr},
        {benchgen::make_array_multiplier(6), nullptr},
        {benchgen::make_sqrt(8), nullptr},
        {benchgen::benchmark_by_name("vda", /*quick=*/true), nullptr},
    };
    int refuted = 0;
    for (const Subject& s : subjects) {
        flows::SynthesisResult base;
        if (s.flow != nullptr) {
            base = flows::run_flow(s.input, s.flow).front();
        } else {
            base.flow_name = "raw";
            base.optimized = s.input;
            base.mapped = map_network(s.input, flows::default_library());
        }
        ASSERT_TRUE(certify_mapping(base.optimized, base.mapped).complete())
            << base.flow_name;
        const std::vector<MappedResult> variants = mutants(base.mapped, 12);
        ASSERT_GE(variants.size(), 12u) << base.flow_name;
        for (std::size_t v = 0; v < variants.size(); ++v) {
            const std::string where = base.flow_name + " " +
                                      s.input.model_name() + " mutant " + std::to_string(v);
            EXPECT_FALSE(certify_mapping(base.optimized, variants[v]).complete()) << where;
            flows::SynthesisResult result = base;
            result.mapped = variants[v];
            const net::EquivalenceResult eq =
                net::check_equivalent(s.input, result.mapped.netlist);
            if (eq.equivalent) {
                // Harmless after all: the global fallback accepts it.
                EXPECT_NO_THROW(flows::verify_synthesis_result(s.input, result)) << where;
                EXPECT_EQ(result.signoff.certificate_fallbacks, 1) << where;
                continue;
            }
            ++refuted;
            EXPECT_THROW(flows::verify_synthesis_result(s.input, result), std::runtime_error)
                << where;
            // The fallback's counterexample is re-verified by simulation.
            ASSERT_EQ(eq.counterexample.size(), s.input.inputs().size()) << where;
            const auto o = static_cast<std::size_t>(eq.failing_output);
            EXPECT_NE(net::simulate(s.input, eq.counterexample)[o],
                      net::simulate(result.mapped.netlist, eq.counterexample)[o])
                << where;
        }
    }
    EXPECT_GT(refuted, 0);
}

TEST(Certificate, RejectsAStaleOrMissingNodeMap) {
    const Network input = benchgen::make_ripple_adder(4);
    const flows::SynthesisResult r = flows::flow_bdsmaj(input);
    MappedResult bare = evaluate_netlist(r.mapped.netlist, flows::default_library());
    EXPECT_FALSE(certify_mapping(r.optimized, bare).complete());
    // The certificate checks the input correspondence too.
    MappedResult swapped = r.mapped;
    std::swap(swapped.node_map[r.optimized.inputs()[0]],
              swapped.node_map[r.optimized.inputs()[1]]);
    EXPECT_FALSE(certify_mapping(r.optimized, swapped).complete());
}

}  // namespace
}  // namespace bdsmaj::mapping
