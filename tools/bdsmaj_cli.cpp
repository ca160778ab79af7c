// bdsmaj command-line synthesis tool. `bdsmaj_cli --help` prints the full
// option reference (print_help() below); docs/cli.md is generated from it.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "benchgen/suite.hpp"
#include "decomp/cone_cache.hpp"
#include "decomp/strategy.hpp"
#include "flows/service.hpp"
#include "network/blif.hpp"

namespace {

using namespace bdsmaj;

/// The CLI's defaults differ from the library's in two places: one BDS-MAJ
/// run, and a sign-off unless --no-verify.
flows::SynthesisJobParams default_job() {
    flows::SynthesisJobParams job;
    job.flow = "bdsmaj";
    job.verify = true;
    return job;
}

struct Options {
    /// Every flow knob: each input is submitted as a job with these
    /// parameters.
    flows::SynthesisJobParams job = default_job();
    std::vector<std::string> inputs;
    std::optional<std::string> out;
    std::optional<std::string> map_out;
    bool quick = false;
    bool quiet = false;
    int max_jobs = 0;
    int cone_cache_mb = -1;  ///< -1 = keep the library default (64 MiB)
    /// --deadline-ms / --soft-budget-ms (0 = off). Each job turns them
    /// into absolute instants as it is submitted (see armed()).
    double deadline_after_ms = 0.0;
    double soft_budget_after_ms = 0.0;
};

/// `opt.job` with its deadline and soft budget counted from now, the
/// job's submission (so queue wait counts).
flows::SynthesisJobParams armed(const Options& opt) {
    flows::SynthesisJobParams job = opt.job;
    const auto now = std::chrono::steady_clock::now();
    const auto after = [now](double ms) {
        return now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double, std::milli>(ms));
    };
    if (opt.deadline_after_ms > 0) job.deadline = after(opt.deadline_after_ms);
    if (opt.soft_budget_after_ms > 0) job.soft_budget = after(opt.soft_budget_after_ms);
    return job;
}

/// Parses a whole flag value as a number: trailing text, overflow, a
/// non-finite float, or (with `non_negative`) a value below zero fail.
template <typename T>
bool parse_number(const char* text, T& out, bool non_negative) {
    const char* end = text + std::strlen(text);
    T value{};
    const auto [stop, error] = std::from_chars(text, end, value);
    if (error != std::errc() || stop != end) return false;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value)) return false;
    }
    if (non_negative && value < 0) return false;
    out = value;
    return true;
}

/// The full option reference, printed by --help (stdout, exit 0). This
/// text is the source of truth for docs/cli.md: tools/gen_cli_docs.sh
/// regenerates the doc from it and the ctest docs.cli_md_matches_help
/// fails on drift.
void print_help(std::FILE* to) {
    std::fprintf(to,
        "bdsmaj_cli - BDS-MAJ command-line synthesis tool\n"
        "\n"
        "usage: bdsmaj_cli [options] <input.blif | @benchmark>...\n"
        "\n"
        "flow selection:\n"
        "  --flow NAME                  synthesis flow: bdsmaj (default), bdspga,\n"
        "                               abc, dc, or all (the four Table II flows)\n"
        "  --preset NAME                decomposition strategy preset for the BDS\n"
        "                               flows (default paper; see --list-presets)\n"
        "  --list-presets               print the preset catalog and exit\n"
        "\n"
        "output:\n"
        "  --out FILE                   write the optimized network as BLIF\n"
        "  --map-out FILE               write the mapped netlist as BLIF\n"
        "                               (--out/--map-out: one input, one flow)\n"
        "  --quiet                      only print each result's summary line\n"
        "\n"
        "engine tuning:\n"
        "  --no-reorder                 skip per-supernode sifting\n"
        "  --sift-max-growth F          abort a sift direction past F x best size\n"
        "  --sift-converge              repeat sift passes until <1%% gain\n"
        "  --k-local F / --k-global F   majority selection sizing factors\n"
        "  --iterations N               balancing iteration limit\n"
        "\n"
        "caching:\n"
        "  --cone-cache-mb N            memory budget of the process-wide cone\n"
        "                               result cache (default 64); repeated cones\n"
        "                               replay cached tapes - results are identical\n"
        "  --no-cone-cache              disable cone memoization entirely\n"
        "\n"
        "verification:\n"
        "  --no-verify                  skip the equivalence sign-off (default on:\n"
        "                               one exact global check of the optimized\n"
        "                               network - BDD up to 20 inputs, SAT above -\n"
        "                               then the mapped netlist is certified node\n"
        "                               by node)\n"
        "\n"
        "deadlines and graceful degradation:\n"
        "  --deadline-ms MS             hard deadline for any flow, measured from\n"
        "                               the job's submission, so queue wait counts.\n"
        "                               The job is shed at dispatch or stopped at\n"
        "                               its next checkpoint and reports \"deadline\n"
        "                               exceeded\"; one input then exits with status\n"
        "                               4, while with several inputs it is not a\n"
        "                               failure\n"
        "  --soft-budget-ms MS          soft budget (BDS flows): once it expires,\n"
        "                               remaining supernodes are decomposed with\n"
        "                               cheaper settings down the degrade ladder\n"
        "                               instead of failing (paper with clamped\n"
        "                               sifting, then plain shannon) - the run\n"
        "                               completes and the result stays equivalent\n"
        "                               (the summary counts the degraded\n"
        "                               supernodes)\n"
        "\n"
        "inputs and jobs (every input is one job of a synthesis service; every\n"
        "flag above applies to each job, and results print in input order):\n"
        "  --max-jobs N                 jobs run concurrently, one worker thread\n"
        "                               each (default: all hardware threads; never\n"
        "                               more than the inputs)\n"
        "  @name                        built-in generator from the paper's suite,\n"
        "                               e.g. @C6288 or \"@Div 18 bit\"; --quick uses\n"
        "                               reduced widths; @names and BLIF files mix\n"
        "                               freely\n");
}

int usage() {
    print_help(stderr);
    return 2;
}

int list_presets() {
    std::printf("decomposition strategy presets (--preset NAME):\n");
    for (const decomp::Preset& p : decomp::presets()) {
        std::printf("  %-18.*s %.*s\n", static_cast<int>(p.name.size()), p.name.data(),
                    static_cast<int>(p.description.size()), p.description.data());
    }
    return 0;
}

net::Network load_input(const std::string& name, bool quick) {
    if (!name.empty() && name[0] == '@') {
        return benchgen::benchmark_by_name(name.substr(1), quick);
    }
    return net::read_blif_file(name);
}

void print_result(const net::Network& input, const flows::SynthesisResult& result,
                  bool quiet) {
    if (!quiet) {
        const net::NetworkStats s = result.optimized_stats;
        std::printf("flow %s on %s\n", result.flow_name.c_str(),
                    input.model_name().c_str());
        std::printf("  decomposed: AND=%d OR=%d XOR=%d XNOR=%d MAJ=%d total=%d\n",
                    s.and_nodes, s.or_nodes, s.xor_nodes, s.xnor_nodes, s.maj_nodes,
                    s.total());
        // Per-strategy engine step counts (BDS flows only; ABC/DC have no
        // engine activity).
        const decomp::EngineStats& e = result.engine_stats;
        if (e.total_steps() + e.literal_leaves > 0) {
            std::printf("  engine steps: sym=%d exact=%d maj=%d simple=%d gen-xor=%d "
                        "shannon=%d (total %d, literals %d)\n",
                        e.steps_for(decomp::StrategyKind::kSymmetric),
                        e.steps_for(decomp::StrategyKind::kExactSmallCone),
                        e.steps_for(decomp::StrategyKind::kMajority),
                        e.steps_for(decomp::StrategyKind::kSimpleDominator),
                        e.steps_for(decomp::StrategyKind::kGeneralizedXor),
                        e.steps_for(decomp::StrategyKind::kShannonMux),
                        e.total_steps(), e.literal_leaves);
            // Reordering effort across the supernode managers.
            if (e.sift_swaps + e.sift_fast_swaps + e.sift_lb_aborts > 0) {
                std::printf("  reorder: swaps=%lld fast-swaps=%lld lb-aborts=%lld "
                            "peak-bdd-nodes=%lld\n",
                            e.sift_swaps, e.sift_fast_swaps, e.sift_lb_aborts,
                            e.peak_bdd_nodes);
            }
            if (e.sift_sym_groups + e.sift_block_swaps + e.symmetric_steps +
                    e.sym_cone_total > 0) {
                std::printf("  symmetry: sift-groups=%lld block-swaps=%lld "
                            "cones-found=%lld cones-served=%d\n",
                            e.sift_sym_groups, e.sift_block_swaps,
                            e.sym_cone_total, e.symmetric_steps);
            }
            if (e.cone_cache_hits + e.cone_cache_misses > 0) {
                std::printf("  cone cache: hits=%lld misses=%lld evictions=%lld "
                            "bytes=%lld\n",
                            e.cone_cache_hits, e.cone_cache_misses,
                            e.cone_cache_evictions, e.cone_cache_bytes);
            }
            // Graceful-degradation accounting: cones cheapened by an
            // expired soft budget or retried after a resource-guard trip.
            if (e.degraded_supernodes + e.resource_exhausted_cones > 0) {
                std::printf("  resilience: degraded-supernodes=%lld "
                            "guard-trips=%lld\n",
                            e.degraded_supernodes, e.resource_exhausted_cones);
            }
        }
        // What the equivalence sign-off did (both checks: optimized and
        // mapped against the input; the mapped one by the local mapping
        // certificate unless it fell back to a global check).
        if (result.equivalence) {
            const flows::SignOffStats& so = result.signoff;
            std::printf("  sign-off: bdd-checks=%d sat-checks=%d sat-calls=%llu "
                        "conflicts=%llu certified-nodes=%d "
                        "certificate-fallbacks=%d optimized-check=%.3fs "
                        "mapped-check=%.3fs time=%.3fs\n",
                        so.bdd_checks, so.sat_checks,
                        static_cast<unsigned long long>(so.cec.sat_calls),
                        static_cast<unsigned long long>(so.cec.conflicts),
                        so.certified_nodes, so.certificate_fallbacks,
                        so.optimized_check_seconds, so.mapped_check_seconds,
                        result.verify_seconds);
        }
    }
    std::printf("%s: area=%.2fum2 gates=%d delay=%.3fns opt_time=%.3fs%s\n",
                input.model_name().c_str(), result.mapped.area_um2,
                result.mapped.gate_count, result.mapped.delay_ns, result.optimize_seconds,
                result.equivalence ? " [verified]" : "");
}

/// Submits every input as one job of a synthesis service and prints the
/// results in input order, whatever order the jobs finish in. Exit status
/// 1 if an input cannot be read or a job fails (a failed sign-off fails
/// its job, so nothing is written); 4 if the one input missed its
/// deadline, while several inputs only report a missed deadline.
int run(const Options& opt) {
    std::vector<net::Network> inputs;
    inputs.reserve(opt.inputs.size());
    for (const std::string& name : opt.inputs) {
        try {
            inputs.push_back(load_input(name, opt.quick));
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error reading %s: %s\n", name.c_str(), e.what());
            return 1;
        }
    }

    // --max-jobs, or every hardware thread, but no worker without an input.
    const int wanted = opt.max_jobs > 0
                           ? opt.max_jobs
                           : static_cast<int>(std::thread::hardware_concurrency());
    flows::ServiceParams sp;
    sp.max_concurrent_jobs = std::min(wanted, static_cast<int>(inputs.size()));
    flows::SynthesisService service(sp);
    std::vector<flows::SynthesisService::Submission> submissions;
    submissions.reserve(inputs.size());
    for (const net::Network& input : inputs) {
        submissions.push_back(service.submit(input, armed(opt)));
    }

    int status = 0;
    for (std::size_t i = 0; i < submissions.size(); ++i) {
        try {
            const flows::FlowResult r = submissions[i].result.get();
            if (r.status == flows::JobStatus::kDeadlineExceeded) {
                std::printf("%s: deadline exceeded (%s)\n",
                            inputs[i].model_name().c_str(),
                            r.start_order == flows::FlowResult::kNoStartOrder
                                ? "shed before start"
                                : "stopped in flight");
                // One input has no result at all; among several, deliberate
                // shedding is not a failure (the summary counts it).
                if (inputs.size() == 1) status = 4;
                continue;
            }
            // One entry for a named flow, four for --flow all.
            for (const flows::SynthesisResult& sr : r.results.at(0)) {
                print_result(inputs[i], sr, opt.quiet);
            }
            const flows::SynthesisResult& only = r.results[0][0];
            if (opt.out) net::write_blif_file(only.optimized, *opt.out);
            if (opt.map_out) net::write_blif_file(only.mapped.netlist, *opt.map_out);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "job %s failed: %s\n", opt.inputs[i].c_str(), e.what());
            status = 1;
        }
    }
    if (opt.quiet) return status;
    const flows::ServiceStats st = service.stats();
    std::printf("service: %d completed, %d failed, %ld networks, "
                "%ld mapped gates, pool=%d threads\n",
                st.completed, st.failed, st.networks_synthesized, st.mapped_gates,
                service.pool_threads());
    if (st.deadline_exceeded + st.degraded_supernodes > 0) {
        std::printf("resilience: %d deadline-exceeded, %lld degraded "
                    "supernodes\n",
                    st.deadline_exceeded, st.degraded_supernodes);
    }
    std::printf("caches: cone hits=%lld misses=%lld evictions=%lld entries=%lld "
                "bytes=%lld\n",
                st.cone_cache_hits, st.cone_cache_misses, st.cone_cache_evictions,
                st.cone_cache_entries, st.cone_cache_bytes);
    return status;
}

/// A switch stores `value` into its bool when given.
struct Switch {
    bool* field;
    bool value;
};

/// One command-line option: a Switch, or a field that takes the next
/// argument as its value (a number must parse whole, see parse_number).
struct Flag {
    const char* name;
    std::variant<Switch, int*, double*, std::string*, std::optional<std::string>*> target;
    bool non_negative = false;  ///< numbers only
};

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    flows::SynthesisJobParams& job = opt.job;
    constexpr bool kNonNegative = true;
    const Flag flags[] = {
        {"--flow", &job.flow},
        {"--preset", &job.preset},
        {"--out", &opt.out},
        {"--map-out", &opt.map_out},
        {"--quiet", Switch{&opt.quiet, true}},
        {"--no-reorder", Switch{&job.reorder, false}},
        {"--sift-max-growth", &job.manager.sift_max_growth},
        {"--sift-converge", Switch{&job.manager.sift_converge, true}},
        {"--k-local", &job.maj.k_local},
        {"--k-global", &job.maj.k_global},
        {"--iterations", &job.maj.max_iterations, kNonNegative},
        {"--cone-cache-mb", &opt.cone_cache_mb, kNonNegative},
        {"--no-cone-cache", Switch{&job.cone_cache, false}},
        {"--no-verify", Switch{&job.verify, false}},
        {"--deadline-ms", &opt.deadline_after_ms, kNonNegative},
        {"--soft-budget-ms", &opt.soft_budget_after_ms, kNonNegative},
        {"--max-jobs", &opt.max_jobs, kNonNegative},
        {"--quick", Switch{&opt.quick, true}},
    };
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            print_help(stdout);
            return 0;
        }
        if (arg == "--list-presets") return list_presets();
        if (arg.empty() || arg[0] != '-') {
            opt.inputs.emplace_back(arg);
            continue;
        }
        const Flag* flag = std::find_if(std::begin(flags), std::end(flags),
                                        [arg](const Flag& f) { return arg == f.name; });
        if (flag == std::end(flags)) {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            return usage();
        }
        if (const Switch* sw = std::get_if<Switch>(&flag->target)) {
            *sw->field = sw->value;
            continue;
        }
        if (i + 1 == argc) return usage();
        const char* value = argv[++i];
        // Stores the value; false, after saying why, when it is malformed.
        const bool stored = std::visit(
            [&](auto target) {
                using T = std::remove_pointer_t<decltype(target)>;
                if constexpr (std::is_arithmetic_v<T>) {
                    if (parse_number(value, *target, flag->non_negative)) return true;
                    std::fprintf(stderr, "%s: invalid %s%s \"%s\"\n", flag->name,
                                 flag->non_negative ? "non-negative " : "",
                                 std::is_integral_v<T> ? "integer" : "number", value);
                    return false;
                } else if constexpr (!std::is_same_v<T, Switch>) {
                    *target = value;
                }
                return true;
            },
            flag->target);
        if (!stored) return 2;
    }
    if (opt.inputs.empty()) return usage();
    const bool bds = job.flow == "bdsmaj" || job.flow == "bdspga" || job.flow == "all";
    if (!bds && job.flow != "abc" && job.flow != "dc") {
        std::fprintf(stderr, "unknown flow %s\n", job.flow.c_str());
        return usage();
    }
    try {
        (void)decomp::find_preset(job.preset);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    if (job.preset != "paper" && !bds) {
        std::fprintf(stderr, "--preset only applies to the BDS flows "
                             "(bdsmaj/bdspga/all)\n");
        return 2;
    }
    if (opt.soft_budget_after_ms > 0 && !bds) {
        std::fprintf(stderr, "--soft-budget-ms only applies to the BDS flows "
                             "(bdsmaj/bdspga/all)\n");
        return 2;
    }
    if ((opt.out || opt.map_out) && (opt.inputs.size() > 1 || job.flow == "all")) {
        std::fprintf(stderr, "--out/--map-out need one input and one flow\n");
        return 2;
    }
    if (opt.cone_cache_mb >= 0) {
        decomp::ConeCache::instance().set_budget_bytes(
            static_cast<std::size_t>(opt.cone_cache_mb) << 20);
    }
    return run(opt);
}
