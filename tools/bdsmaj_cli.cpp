// bdsmaj command-line synthesis tool.
//
//   bdsmaj_cli [options] <input.blif | @benchmark-name>
//
//   --flow bdsmaj|bdspga|abc|dc   synthesis flow (default bdsmaj)
//   --preset NAME                 decomposition strategy preset for the
//                                 BDS flows ("paper" default; see
//                                 --list-presets)
//   --list-presets                print the preset catalog and exit
//   --out FILE                    write the optimized network as BLIF
//   --map-out FILE                write the mapped netlist as BLIF
//   --no-maj                      shorthand for --flow bdspga
//   --no-reorder                  skip per-supernode sifting
//   --sift-symmetry               force symmetry-aware block sifting on
//   --no-sift-symmetry            force it off (default: the preset decides)
//   --sift-max-growth F           abort a sift direction past F x best size
//   --sift-converge               repeat sift passes until <1% gain
//   --sift-max-vars N             sift at most N variables per pass
//   --k-local F / --k-global F    majority selection sizing factors
//   --iterations N                balancing iteration limit
//   --cone-cache-mb N             memory budget of the process-wide cone
//                                 result cache (default 64); repeated cones
//                                 replay cached tapes instead of being
//                                 re-decomposed — results are identical
//   --no-cone-cache               disable cone memoization entirely
//   --help / -h                   the full option reference on stdout
//   --quick                       reduced widths for @benchmarks
//   --verify                      equivalence-check outputs (default on)
//   --oracle auto|bdd|sat|sim     equivalence engine for --verify
//                                 (default auto: simulation refutes, then
//                                 a BDD proof on tiny input counts and the
//                                 SAT miter sweep everywhere else for the
//                                 optimized network, and the local mapping
//                                 certificate for the mapped netlist; sim
//                                 alone is not an exact sign-off)
//   --quiet                       only print the summary line (suppresses
//                                 the per-strategy engine step counts)
//   --deadline-ms MS              hard deadline: a single run stops at the
//                                 next checkpoint (exit status 4); a batch
//                                 job is shed/stopped and reported, not
//                                 failed
//   --soft-budget-ms MS           soft budget: past it, remaining
//                                 supernodes degrade down the ladder and
//                                 the run still completes, verified
//   --degrade-ladder A,B          comma-separated degrade preset ladder
//                                 (default paper,shannon)
//
// Batch service mode (multiple inputs through flows::SynthesisService on
// the shared process pool):
//   --batch                       treat every positional arg as an input;
//                                 submit each as one async service job and
//                                 print results in submission order (also
//                                 implied by giving more than one input).
//                                 --flow additionally accepts "all" here
//                                 (all four Table II flows per input); every
//                                 flag above applies to each job as it does
//                                 to a single run
//   --pool N                      shared-pool thread count (otherwise the
//                                 BDSMAJ_JOBS env var / all cores)
//   --max-jobs N                  jobs admitted concurrently (default:
//                                 pool size)
//
// `@name` uses a built-in generator from the paper's suite, e.g.
// `bdsmaj_cli @C6288` or `bdsmaj_cli "@Div 18 bit"`, and batch mode mixes
// them freely with BLIF files: `bdsmaj_cli --batch @C1355 @C6288 my.blif`.

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "benchgen/suite.hpp"
#include "decomp/cone_cache.hpp"
#include "decomp/strategy.hpp"
#include "flows/flows.hpp"
#include "flows/service.hpp"
#include "network/blif.hpp"
#include "network/cec.hpp"
#include "runtime/scheduler.hpp"

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
    /// Every flow knob. A single run passes it to flows::run_flow as its
    /// FlowOptions; batch mode submits it as each job's parameters.
    flows::SynthesisJobParams job = default_job();
    std::vector<std::string> inputs;
    std::optional<std::string> out;
    std::optional<std::string> map_out;
    bool quick = false;
    bool quiet = false;
    bool batch = false;
    int pool = 0;
    int max_jobs = 0;
    int cone_cache_mb = -1;  ///< -1 = keep the library default (64 MiB)
    /// --deadline-ms / --soft-budget-ms (<= 0 = off). Each run turns them
    /// into absolute instants as it starts (see armed()).
    double deadline_after_ms = 0.0;
    double soft_budget_after_ms = 0.0;
};

/// `opt.job` with its deadline and soft budget counted from now: the start
/// of a single run, or a batch job's submission (so queue wait counts).
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
/// regenerates the doc from it and tools/ci.sh fails on drift.
void print_help(std::FILE* to) {
    std::fprintf(to,
        "bdsmaj_cli - BDS-MAJ command-line synthesis tool\n"
        "\n"
        "usage: bdsmaj_cli [options] <input.blif | @benchmark> [more inputs in batch mode]\n"
        "\n"
        "flow selection:\n"
        "  --flow bdsmaj|bdspga|abc|dc  synthesis flow (default bdsmaj); batch\n"
        "                               mode additionally accepts \"all\"\n"
        "  --preset NAME                decomposition strategy preset for the BDS\n"
        "                               flows (default paper; see --list-presets)\n"
        "  --list-presets               print the preset catalog and exit\n"
        "  --no-maj                     shorthand for --flow bdspga\n"
        "\n"
        "output:\n"
        "  --out FILE                   write the optimized network as BLIF\n"
        "  --map-out FILE               write the mapped netlist as BLIF\n"
        "  --quiet                      only print the summary line\n"
        "\n"
        "engine tuning:\n"
        "  --no-reorder                 skip per-supernode sifting\n"
        "  --sift-symmetry              force symmetry-aware sifting on: detect\n"
        "                               symmetric variable groups and move them as\n"
        "                               blocks (default: the preset decides - on\n"
        "                               for symmetry/exact-aggressive/best-cost,\n"
        "                               off for the pinned paper baselines)\n"
        "  --no-sift-symmetry           force symmetry-aware sifting off\n"
        "  --sift-max-growth F          abort a sift direction past F x best size\n"
        "  --sift-converge              repeat sift passes until <1%% gain\n"
        "  --sift-max-vars N            sift at most N variables per pass\n"
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
        "  --no-verify                  skip the equivalence sign-off (default on)\n"
        "  --oracle auto|bdd|sat|sim    equivalence engine for the sign-off\n"
        "                               (default auto: one global check of the\n"
        "                               optimized network, then the mapped\n"
        "                               netlist is certified node by node; bdd\n"
        "                               and sat run both checks globally; sim\n"
        "                               alone is sampled, not an exact sign-off)\n"
        "\n"
        "deadlines and graceful degradation (BDS flows):\n"
        "  --deadline-ms MS             hard deadline, measured from the start of\n"
        "                               the run (batch: from submission, so queue\n"
        "                               wait counts). A single run stops at the\n"
        "                               next checkpoint and exits with status 4;\n"
        "                               a batch job is shed at dispatch or stopped\n"
        "                               in flight and reports \"deadline exceeded\"\n"
        "                               (a shed job is not a batch failure)\n"
        "  --soft-budget-ms MS          soft budget: once it expires, remaining\n"
        "                               supernodes are decomposed with cheaper\n"
        "                               settings down the degrade ladder instead\n"
        "                               of failing - the run completes and the\n"
        "                               result stays equivalent (the summary\n"
        "                               counts the degraded supernodes)\n"
        "  --degrade-ladder A,B         comma-separated preset ladder to fall\n"
        "                               down when degrading (default\n"
        "                               paper,shannon; a terminal plain-shannon\n"
        "                               stage is appended if missing)\n"
        "\n"
        "batch service mode (multiple inputs through the shared process pool):\n"
        "  --batch                      treat every positional arg as an input and\n"
        "                               submit each as one async service job (also\n"
        "                               implied by giving more than one input);\n"
        "                               results print in submission order, and\n"
        "                               every flag above applies to each job\n"
        "  --pool N                     shared-pool thread count (otherwise the\n"
        "                               BDSMAJ_JOBS env var / all cores)\n"
        "  --max-jobs N                 jobs admitted concurrently (default: pool\n"
        "                               size)\n"
        "\n"
        "inputs:\n"
        "  @name                        built-in generator from the paper's suite,\n"
        "                               e.g. @C6288 or \"@Div 18 bit\"; --quick uses\n"
        "                               reduced widths; batch mode mixes @names and\n"
        "                               BLIF files freely\n");
}

int usage() {
    print_help(stderr);
    return 2;
}

int list_presets() {
    std::printf("decomposition strategy presets (--preset NAME):\n");
    for (const decomp::PresetInfo& p : decomp::preset_catalog()) {
        std::printf("  %-18s %s\n", p.name.c_str(), p.description.c_str());
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
                  double seconds, bool quiet) {
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
                result.mapped.gate_count, result.mapped.delay_ns, seconds,
                result.equivalence ? " [verified]" : "");
}

/// Process-wide cone tape cache summary, shared by the single and batch
/// paths.
void print_cache_summary() {
    const decomp::ConeCacheStats cone = decomp::ConeCache::instance().stats();
    std::printf("caches: cone hits=%lld misses=%lld evictions=%lld entries=%lld "
                "bytes=%lld\n",
                cone.hits, cone.misses, cone.evictions, cone.entries, cone.bytes);
}

/// Batch service mode: every input becomes one async job on the shared
/// scheduler; results print in submission order regardless of completion
/// order, so the output is stable.
int run_batch(const Options& opt) {
    if (opt.out || opt.map_out) {
        std::fprintf(stderr, "--out/--map-out are per-input; not available in "
                             "batch mode\n");
        return 2;
    }
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

    flows::ServiceParams sp;
    sp.max_concurrent_jobs = opt.max_jobs;
    flows::SynthesisService service(sp);
    std::vector<flows::SynthesisService::Submission> submissions;
    submissions.reserve(inputs.size());
    for (const net::Network& input : inputs) {
        // Verification runs inside the job: a failed sign-off fails that
        // job's future instead of handing out a wrong network.
        submissions.push_back(service.submit(input, armed(opt)));
    }

    bool all_ok = true;
    for (std::size_t i = 0; i < submissions.size(); ++i) {
        try {
            const flows::FlowResult r = submissions[i].result.get();
            if (r.status == flows::JobStatus::kDeadlineExceeded) {
                // Deliberate shedding, not a failure: the batch's exit
                // status is unaffected (the summary line counts them).
                std::printf("%s: deadline exceeded%s\n",
                            inputs[i].model_name().c_str(),
                            r.start_order == flows::FlowResult::kNoStartOrder
                                ? " (shed before start)"
                                : " (stopped in flight)");
                continue;
            }
            if (r.status == flows::JobStatus::kCancelled) {
                std::printf("%s: cancelled\n", inputs[i].model_name().c_str());
                continue;
            }
            // One entry for a named flow, four for --flow all; a failed
            // sign-off would have failed the job.
            for (const flows::SynthesisResult& sr : r.results.at(0)) {
                print_result(inputs[i], sr, r.seconds, opt.quiet);
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "job %s failed: %s\n", opt.inputs[i].c_str(),
                         e.what());
            all_ok = false;
        }
    }
    const flows::ServiceStats st = service.stats();
    std::printf("service: %d completed, %d failed, %ld networks, "
                "%ld mapped gates, pool=%d threads\n",
                st.completed, st.failed, st.networks_synthesized, st.mapped_gates,
                runtime::global_pool_threads());
    if (st.deadline_exceeded + st.degraded_supernodes > 0) {
        std::printf("resilience: %d deadline-exceeded, %lld degraded "
                    "supernodes\n",
                    st.deadline_exceeded, st.degraded_supernodes);
    }
    print_cache_summary();
    return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    flows::SynthesisJobParams& job = opt.job;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        // Reads this flag's value into `field`; false, after saying why,
        // when the value is missing or malformed.
        const auto value = [&](auto& field, bool non_negative = false) {
            const char* v = next();
            if (v == nullptr) {
                usage();
                return false;
            }
            using T = std::remove_reference_t<decltype(field)>;
            if constexpr (std::is_arithmetic_v<T>) {
                if (!parse_number(v, field, non_negative)) {
                    std::fprintf(stderr, "%s: invalid %s%s \"%s\"\n", arg.c_str(),
                                 non_negative ? "non-negative " : "",
                                 std::is_integral_v<T> ? "integer" : "number", v);
                    return false;
                }
            } else {
                field = v;
            }
            return true;
        };
        constexpr bool kNonNegative = true;
        if (arg == "--help" || arg == "-h") {
            print_help(stdout);
            return 0;
        } else if (arg == "--flow") {
            if (!value(job.flow)) return 2;
        } else if (arg == "--preset") {
            if (!value(job.preset)) return 2;
        } else if (arg == "--list-presets") {
            return list_presets();
        } else if (arg == "--out") {
            if (!value(opt.out)) return 2;
        } else if (arg == "--map-out") {
            if (!value(opt.map_out)) return 2;
        } else if (arg == "--no-maj") {
            job.flow = "bdspga";
        } else if (arg == "--no-reorder") {
            job.reorder = false;
        } else if (arg == "--sift-symmetry") {
            job.sift_symmetry = 1;
        } else if (arg == "--no-sift-symmetry") {
            job.sift_symmetry = 0;
        } else if (arg == "--sift-max-growth") {
            if (!value(job.manager.sift_max_growth)) return 2;
        } else if (arg == "--sift-converge") {
            job.manager.sift_converge = true;
        } else if (arg == "--sift-max-vars") {
            if (!value(job.manager.sift_max_vars, kNonNegative)) return 2;
        } else if (arg == "--k-local") {
            if (!value(job.maj.k_local)) return 2;
        } else if (arg == "--k-global") {
            if (!value(job.maj.k_global)) return 2;
        } else if (arg == "--iterations") {
            if (!value(job.maj.max_iterations, kNonNegative)) return 2;
        } else if (arg == "--pool") {
            if (!value(opt.pool, kNonNegative)) return 2;
        } else if (arg == "--max-jobs") {
            if (!value(opt.max_jobs, kNonNegative)) return 2;
        } else if (arg == "--cone-cache-mb") {
            if (!value(opt.cone_cache_mb, kNonNegative)) return 2;
        } else if (arg == "--no-cone-cache") {
            job.cone_cache = false;
        } else if (arg == "--deadline-ms") {
            if (!value(opt.deadline_after_ms)) return 2;
        } else if (arg == "--soft-budget-ms") {
            if (!value(opt.soft_budget_after_ms)) return 2;
        } else if (arg == "--degrade-ladder") {
            std::string ladder;
            if (!value(ladder)) return 2;
            job.degrade_ladder.clear();
            std::string rung;
            for (const char c : ladder + ',') {
                if (c != ',') {
                    rung.push_back(c);
                } else if (!rung.empty()) {
                    job.degrade_ladder.push_back(std::move(rung));
                    rung.clear();
                }
            }
        } else if (arg == "--batch") {
            opt.batch = true;
        } else if (arg == "--quick") {
            opt.quick = true;
        } else if (arg == "--no-verify") {
            job.verify = false;
        } else if (arg == "--oracle") {
            std::string name;
            if (!value(name)) return 2;
            try {
                job.oracle = net::parse_equiv_engine(name);
            } catch (const std::exception& e) {
                std::fprintf(stderr, "%s\n", e.what());
                return usage();
            }
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return usage();
        } else {
            opt.inputs.push_back(arg);
        }
    }
    if (opt.inputs.empty()) return usage();
    const bool batch = opt.batch || opt.inputs.size() > 1;
    const bool bds = job.flow == "bdsmaj" || job.flow == "bdspga" ||
                     (batch && job.flow == "all");
    if (!bds && job.flow != "abc" && job.flow != "dc") {
        std::fprintf(stderr, "unknown flow %s\n", job.flow.c_str());
        return usage();
    }
    if (!decomp::is_known_preset(job.preset)) {
        std::fprintf(stderr, "unknown preset \"%s\"; --list-presets shows the "
                             "catalog\n", job.preset.c_str());
        return 2;
    }
    if (job.preset != "paper" && !bds) {
        std::fprintf(stderr, "--preset only applies to the BDS flows "
                             "(bdsmaj/bdspga/all)\n");
        return 2;
    }
    for (const std::string& rung : job.degrade_ladder) {
        if (!decomp::is_known_preset(rung)) {
            std::fprintf(stderr, "unknown preset \"%s\" in --degrade-ladder; "
                                 "--list-presets shows the catalog\n",
                         rung.c_str());
            return 2;
        }
    }
    if ((opt.deadline_after_ms > 0 || opt.soft_budget_after_ms > 0 ||
         !job.degrade_ladder.empty()) && !bds) {
        std::fprintf(stderr, "--deadline-ms/--soft-budget-ms/--degrade-ladder "
                             "only apply to the BDS flows (bdsmaj/bdspga/all)\n");
        return 2;
    }
    if (opt.cone_cache_mb >= 0) {
        decomp::ConeCache::instance().set_budget_bytes(
            static_cast<std::size_t>(opt.cone_cache_mb) << 20);
    }
    if (opt.pool > 0) runtime::configure_global_pool(opt.pool);
    if (batch) return run_batch(opt);

    net::Network input;
    try {
        input = load_input(opt.inputs[0], opt.quick);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error reading input: %s\n", e.what());
        return 1;
    }

    flows::SynthesisResult result;
    try {
        result = std::move(flows::run_flow(input, job.flow, armed(opt)).front());
    } catch (const decomp::DeadlineExceeded&) {
        std::fprintf(stderr, "%s: deadline exceeded (--deadline-ms %g); "
                             "no result produced\n",
                     input.model_name().c_str(), opt.deadline_after_ms);
        return 4;
    } catch (const std::exception& e) {
        // A failed sign-off lands here too, before any output is written.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    if (result.equivalence && !result.equivalence->exact) {
        // Only the sim engine leaves a sampled verdict; make the weaker
        // guarantee impossible to miss.
        std::fprintf(stderr, "note: --oracle sim agreement is sampled, "
                             "not an exact sign-off\n");
    }
    print_result(input, result, result.optimize_seconds, opt.quiet);
    if (!opt.quiet) print_cache_summary();

    if (opt.out) net::write_blif_file(result.optimized, *opt.out);
    if (opt.map_out) net::write_blif_file(result.mapped.netlist, *opt.map_out);
    return 0;
}
