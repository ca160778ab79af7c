#pragma once
// Deterministic fault injection for chaos testing the synthesis service.
//
// A handful of named sites on the serving path call fault_point(site); in
// normal builds that compiles to an empty inline function, so the layer is
// provably zero-cost. Configuring CMake with -DBDSMAJ_FAULT_INJECT=ON
// compiles the hooks in: an armed FaultInjector then throws InjectedFault
// or sleeps on a schedule that is a pure function of (plan seed, site,
// per-site hit index) — rerunning the same workload with the same plan
// reproduces the same faults at the same points, which is what lets the
// chaos suite assert exact failure semantics instead of "it crashed
// somewhere".
//
// Sites deliberately sit on both sides of every containment boundary the
// service claims to have: a worker task entry (the job-level catch-all), a
// cone-cache insert (shared-state mutation), a SAT solve (deep inside a
// strategy), and BDD manager node allocation (the same throw path as
// ManagerParams::max_live_nodes).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace bdsmaj::runtime {

enum class FaultSite : int {
    kWorkerTaskEntry = 0,  ///< SynthesisService::execute, inside the try
    kConeCacheInsert,      ///< decomp::ConeCache::insert
    kSatSolve,             ///< sat::Solver::solve entry
    kManagerAlloc,         ///< bdd::Manager::make_node fresh allocation
};
inline constexpr int kFaultSiteCount = 4;

/// Stable human-readable site name; appears in InjectedFault::what() so a
/// failed future names where the fault was planted.
[[nodiscard]] const char* fault_site_name(FaultSite site) noexcept;

/// Thrown by an armed injector. Deliberately NOT derived from the
/// recoverable bdd::ResourceExhausted: the degrade ladder must not absorb
/// an injected fault, it has to surface as a kFailed job whose error names
/// the site (that asymmetry is itself under test).
class InjectedFault : public std::runtime_error {
public:
    InjectedFault(FaultSite site, std::uint64_t hit);
    [[nodiscard]] FaultSite site() const noexcept { return site_; }

private:
    FaultSite site_;
};

/// An injection schedule. Rates are per-hit probabilities in [0, 1],
/// evaluated against a hash of (seed, site, hit index) — deterministic and
/// independent per hit, so seed sweeps explore distinct schedules.
struct FaultPlan {
    std::uint64_t seed = 1;
    /// Probability that a hit throws InjectedFault.
    double throw_rate = 0.0;
    /// Probability that a (non-throwing) hit sleeps for `delay` instead —
    /// jitter to shake out ordering assumptions without failing anything.
    double delay_rate = 0.0;
    std::chrono::microseconds delay{200};
    /// Bit i enables FaultSite(i); default = every site.
    std::uint32_t site_mask = 0xffffffffu;
    /// Never fault the first N hits of each site (lets a workload get past
    /// setup before the chaos starts).
    std::uint64_t skip_first = 0;
};

/// Process-wide injector. arm()/disarm() must not race instrumented code:
/// the chaos tests arm before submitting work and disarm after wait_idle,
/// which is the supported discipline.
class FaultInjector {
public:
    static FaultInjector& instance();

    void arm(const FaultPlan& plan);
    void disarm();
    [[nodiscard]] bool armed() const noexcept {
        return armed_.load(std::memory_order_acquire);
    }

    /// The instrumented sites call this (via fault_point). Throws
    /// InjectedFault or sleeps according to the armed plan; no-op when
    /// disarmed.
    void check(FaultSite site);

    /// Telemetry since the last reset_counters(): instrumented passes,
    /// faults thrown, delays served, per site.
    [[nodiscard]] std::uint64_t hits(FaultSite site) const noexcept;
    [[nodiscard]] std::uint64_t injected(FaultSite site) const noexcept;
    [[nodiscard]] std::uint64_t delayed(FaultSite site) const noexcept;
    void reset_counters() noexcept;

private:
    FaultInjector() = default;

    std::atomic<bool> armed_{false};
    FaultPlan plan_{};
    std::atomic<std::uint64_t> hits_[kFaultSiteCount] = {};
    std::atomic<std::uint64_t> injected_[kFaultSiteCount] = {};
    std::atomic<std::uint64_t> delayed_[kFaultSiteCount] = {};
};

/// True when the fault hooks are compiled in (BDSMAJ_FAULT_INJECT). Chaos
/// tests GTEST_SKIP on false so the normal tier-1 run stays green without
/// silently passing vacuous assertions.
[[nodiscard]] bool fault_injection_compiled() noexcept;

#if defined(BDSMAJ_FAULT_INJECT)
inline void fault_point(FaultSite site) { FaultInjector::instance().check(site); }
#else
inline void fault_point(FaultSite) noexcept {}
#endif

}  // namespace bdsmaj::runtime
