#include "flows/flows.hpp"

#include <chrono>
#include <stdexcept>

#include "aig/convert.hpp"
#include "aig/opt.hpp"
#include "mapping/certify.hpp"
#include "network/cleanup.hpp"
#include "runtime/scheduler.hpp"

namespace bdsmaj::flows {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Flow-boundary checkpoint: the BDS flows checkpoint internally (between
/// supernodes), but the ABC and DC passes are not interruptible, so the
/// token — and the hard deadline — are checked between flows and between
/// circuits too.
void checkpoint(const FlowOptions& options) {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
        throw decomp::FlowCancelled();
    }
    if (options.deadline && Clock::now() >= *options.deadline) {
        throw decomp::DeadlineExceeded();
    }
}

}  // namespace

void verify_synthesis_result(const net::Network& input, SynthesisResult& result,
                             const FlowOptions& options) {
    const auto start = Clock::now();
    net::CecParams cec;
    cec.engine = options.oracle;
    SignOffStats& so = result.signoff;
    const auto prove = [&](const net::Network& stage, double& stage_seconds) {
        checkpoint(options);
        const auto stage_start = Clock::now();
        net::CecStats stats;
        net::EquivalenceResult eq = net::check_equivalent(input, stage, cec, &stats);
        stage_seconds += seconds_since(stage_start);
        so.cec += stats;
        if (eq.engine == net::EquivEngine::kBdd) ++so.bdd_checks;
        if (eq.engine == net::EquivEngine::kSat) ++so.sat_checks;
        if (!eq.equivalent) {
            throw std::runtime_error(
                result.flow_name + ": verification failed (engine " +
                net::equiv_engine_name(eq.engine) + "): " + eq.reason);
        }
        result.equivalence = std::move(eq);
    };
    prove(result.optimized, so.optimized_check_seconds);
    // input == optimized is proven; under kAuto a complete certificate
    // extends that proof to the mapped netlist.
    bool mapped_proven = false;
    if (options.oracle == net::EquivEngine::kAuto) {
        const auto stage_start = Clock::now();
        const mapping::MappingCertificate cert =
            mapping::certify_mapping(result.optimized, result.mapped);
        so.mapped_check_seconds += seconds_since(stage_start);
        so.certified_nodes += cert.certified_nodes;
        mapped_proven = cert.complete();
        if (!mapped_proven) ++so.certificate_fallbacks;
    }
    if (!mapped_proven) prove(result.mapped.netlist, so.mapped_check_seconds);
    result.verify_seconds = seconds_since(start);
}

namespace {

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
    params.sift_symmetry = options.sift_symmetry;
    params.cone_cache = options.cone_cache;
    params.cancel = options.cancel;
    params.deadline = options.deadline;
    params.soft_budget = options.soft_budget;
    params.degrade_ladder = options.degrade_ladder;
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
    aig::Aig a = aig::network_to_aig(net::cleanup(input));
    a = aig::resyn2(a);
    std::vector<std::string> in_names, out_names;
    for (const net::NodeId id : input.inputs()) in_names.push_back(input.node(id).name);
    for (const net::OutputPort& po : input.outputs()) out_names.push_back(po.name);
    // The paper's point about standard mappers is that they hide XOR/MAJ
    // structure (SV-B1); the faithful ABC configuration therefore maps the
    // plain AIG without structural motif recovery. The DC proxy, modeling
    // the stronger commercial tool, keeps recovery on.
    aig::AigToNetworkOptions map_options;
    map_options.detect_xor_mux = false;
    result.optimized =
        net::cleanup(aig::aig_to_network(a, in_names, out_names, map_options));
    result.optimized_stats = result.optimized.stats();
    result.optimize_seconds = seconds_since(start);
    result.mapped = mapping::map_network(result.optimized, default_library());
    return result;
}

std::string decorated_flow_name(std::string base, const std::string& preset) {
    if (preset != "paper") base += "(" + preset + ")";
    return base;
}

std::vector<SynthesisResult> run_all_flows(const net::Network& input,
                                           const FlowOptions& options) {
    std::vector<SynthesisResult> out;
    out.push_back(flow_bdsmaj(input, options));
    out.push_back(flow_bdspga(input, options));
    checkpoint(options);
    out.push_back(flow_abc(input));
    checkpoint(options);
    out.push_back(flow_dc(input));
    if (options.verify) {
        // The BDS flows signed off inside from_decomposition; ABC and DC
        // take no options, so their sign-off happens here.
        verify_synthesis_result(input, out[2], options);
        verify_synthesis_result(input, out[3], options);
    }
    return out;
}

std::vector<SynthesisResult> run_flow(const net::Network& input, const std::string& flow,
                                      const FlowOptions& options) {
    if (flow == "all") return run_all_flows(input, options);
    if (flow == "bdsmaj") return {flow_bdsmaj(input, options)};
    if (flow == "bdspga") return {flow_bdspga(input, options)};
    SynthesisResult result;
    if (flow == "abc") {
        result = flow_abc(input);
    } else if (flow == "dc") {
        result = flow_dc(input);
    } else {
        throw std::invalid_argument("unknown flow \"" + flow + "\"");
    }
    // ABC/DC take no options, so their sign-off happens here (the BDS
    // flows sign off in from_decomposition, "all" in run_all_flows).
    if (options.verify) verify_synthesis_result(input, result, options);
    return {std::move(result)};
}

std::vector<std::vector<SynthesisResult>> run_suite(
    const std::vector<net::Network>& inputs, const FlowOptions& options,
    const std::string& flow) {
    std::vector<std::vector<SynthesisResult>> results(inputs.size());
    runtime::parallel_for(inputs.size(), runtime::effective_jobs(options.jobs),
                          [&](std::size_t i) {
                              checkpoint(options);
                              results[i] = run_flow(inputs[i], flow, options);
                          });
    return results;
}

}  // namespace bdsmaj::flows
