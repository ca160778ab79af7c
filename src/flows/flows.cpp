#include "flows/flows.hpp"

#include <chrono>
#include <stdexcept>

#include "aig/convert.hpp"
#include "mapping/certify.hpp"

namespace bdsmaj::flows {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Flow-boundary checkpoint: the BDS flows checkpoint internally (between
/// supernodes), but the ABC and DC passes are not interruptible, so the
/// hard deadline is checked before each of them and between circuits too.
void checkpoint(const FlowOptions& options) {
    if (options.deadline && Clock::now() >= *options.deadline) {
        throw decomp::DeadlineExceeded();
    }
}

}  // namespace

void verify_synthesis_result(const net::Network& input, SynthesisResult& result,
                             const FlowOptions& options) {
    const auto start = Clock::now();
    SignOffStats& so = result.signoff;
    const auto prove = [&](const net::Network& stage, double& stage_seconds) {
        checkpoint(options);
        const auto stage_start = Clock::now();
        net::EquivalenceResult eq = net::check_equivalent(input, stage, {}, &so.cec);
        stage_seconds += seconds_since(stage_start);
        if (eq.engine == net::EquivEngine::kBdd) ++so.bdd_checks;
        if (eq.engine == net::EquivEngine::kSat) ++so.sat_checks;
        if (eq.engine == net::EquivEngine::kExhaustive) ++so.exhaustive_checks;
        if (!eq.equivalent) {
            throw std::runtime_error(
                result.flow_name + ": verification failed (engine " +
                net::equiv_engine_name(eq.engine) + "): " + eq.reason);
        }
        result.equivalence = std::move(eq);
    };
    prove(result.optimized, so.optimized_check_seconds);
    // input == optimized is proven; a complete certificate extends that
    // proof to the mapped netlist.
    const auto stage_start = Clock::now();
    const mapping::MappingCertificate cert =
        mapping::certify_mapping(result.optimized, result.mapped);
    so.mapped_check_seconds += seconds_since(stage_start);
    so.certified_nodes += cert.certified_nodes;
    if (!cert.complete()) {
        ++so.certificate_fallbacks;
        prove(result.mapped.netlist, so.mapped_check_seconds);
    }
    result.verify_seconds = seconds_since(start);
}

namespace {

/// Flow-name decoration for non-default presets ("BDS-MAJ" ->
/// "BDS-MAJ(exact-aggressive)").
std::string decorated_flow_name(std::string base, const std::string& preset) {
    if (preset != "paper") base += "(" + preset + ")";
    return base;
}

SynthesisResult from_decomposition(std::string name, const net::Network& input,
                                   bool use_majority, const FlowOptions& options) {
    const auto start = Clock::now();
    decomp::DecompFlowParams params;
    params.engine.use_majority = use_majority;
    params.engine.preset = options.preset;
    params.engine.maj = options.maj;
    if (options.exact_max_support >= 0) {
        params.engine.exact_max_support = options.exact_max_support;
    }
    params.manager = options.manager;
    params.reorder = options.reorder;
    params.cone_cache = options.cone_cache;
    params.deadline = options.deadline;
    params.soft_budget = options.soft_budget;
    decomp::DecompFlowResult d = decomp::decompose_network(input, params);
    SynthesisResult result;
    // Non-default presets surface in the flow name so multi-preset sweeps
    // stay tellable apart in logs and CLI output.
    result.flow_name = decorated_flow_name(std::move(name), options.preset);
    result.engine_stats = d.engine_stats;
    result.optimized = std::move(d.network);
    result.optimized_stats = result.optimized.stats();
    result.optimize_seconds = seconds_since(start);
    result.mapped = mapping::map_network(result.optimized, default_library());
    if (options.verify) verify_synthesis_result(input, result, options);
    return result;
}

}  // namespace

const mapping::CellLibrary& default_library() {
    static const mapping::CellLibrary lib = mapping::CellLibrary::cmos22nm();
    return lib;
}

SynthesisResult flow_bdsmaj(const net::Network& input, const FlowOptions& options) {
    return from_decomposition("BDS-MAJ", input, /*use_majority=*/true, options);
}

SynthesisResult flow_bdspga(const net::Network& input, const FlowOptions& options) {
    return from_decomposition("BDS-PGA", input, /*use_majority=*/false, options);
}

SynthesisResult flow_abc(const net::Network& input) {
    const auto start = Clock::now();
    SynthesisResult result;
    result.flow_name = "ABC";
    // The paper's point about standard mappers is that they hide XOR/MAJ
    // structure (SV-B1); the faithful ABC configuration therefore maps the
    // plain AIG without structural motif recovery. The DC proxy, modeling
    // the stronger commercial tool, keeps recovery on.
    result.optimized = aig::resyn2_network(input, 1, {.detect_xor_mux = false});
    result.optimized_stats = result.optimized.stats();
    result.optimize_seconds = seconds_since(start);
    result.mapped = mapping::map_network(result.optimized, default_library());
    return result;
}

std::vector<SynthesisResult> run_all_flows(const net::Network& input,
                                           const FlowOptions& options) {
    std::vector<SynthesisResult> out;
    for (const char* flow : {"bdsmaj", "bdspga", "abc", "dc"}) {
        out.push_back(std::move(run_flow(input, flow, options)[0]));
    }
    return out;
}

std::vector<SynthesisResult> run_flow(const net::Network& input, const std::string& flow,
                                      const FlowOptions& options) {
    if (flow == "all") return run_all_flows(input, options);
    if (flow == "bdsmaj") return {flow_bdsmaj(input, options)};
    if (flow == "bdspga") return {flow_bdspga(input, options)};
    if (flow != "abc" && flow != "dc") {
        throw std::invalid_argument("unknown flow \"" + flow + "\"");
    }
    checkpoint(options);  // ABC and DC are not interruptible
    SynthesisResult result = flow == "abc" ? flow_abc(input) : flow_dc(input);
    // ABC/DC take no options, so their sign-off happens here (the BDS
    // flows sign off in from_decomposition).
    if (options.verify) verify_synthesis_result(input, result, options);
    return {std::move(result)};
}

std::vector<std::vector<SynthesisResult>> run_suite(
    const std::vector<net::Network>& inputs, const FlowOptions& options,
    const std::string& flow) {
    std::vector<std::vector<SynthesisResult>> results;
    results.reserve(inputs.size());
    for (const net::Network& input : inputs) {
        checkpoint(options);
        results.push_back(run_flow(input, flow, options));
    }
    return results;
}

}  // namespace bdsmaj::flows
