#include "runtime/fault_inject.hpp"

#include <thread>

namespace bdsmaj::runtime {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Deterministic uniform draw in [0, 1) for (seed, site, hit).
double fault_draw(std::uint64_t seed, FaultSite site, std::uint64_t hit) {
    const std::uint64_t mixed = splitmix64(
        splitmix64(seed ^ (static_cast<std::uint64_t>(site) + 1) * 0x9e3779b97f4a7c15ull) ^
        hit);
    return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

}  // namespace

const char* fault_site_name(FaultSite site) noexcept {
    switch (site) {
        case FaultSite::kWorkerTaskEntry: return "worker-task-entry";
        case FaultSite::kConeCacheInsert: return "cone-cache-insert";
        case FaultSite::kSatSolve: return "sat-solve";
        case FaultSite::kManagerAlloc: return "manager-alloc";
    }
    return "unknown-site";
}

InjectedFault::InjectedFault(FaultSite site, std::uint64_t hit)
    : std::runtime_error("injected fault at site " + std::string(fault_site_name(site)) +
                         " (hit " + std::to_string(hit) + ")"),
      site_(site) {}

FaultInjector& FaultInjector::instance() {
    static FaultInjector injector;
    return injector;
}

void FaultInjector::arm(const FaultPlan& plan) {
    plan_ = plan;
    // The release store publishes plan_ to any thread that observes
    // armed_ == true with an acquire load in check().
    armed_.store(true, std::memory_order_release);
}

void FaultInjector::disarm() { armed_.store(false, std::memory_order_release); }

void FaultInjector::check(FaultSite site) {
    if (!armed_.load(std::memory_order_acquire)) return;
    const int idx = static_cast<int>(site);
    if ((plan_.site_mask & (1u << idx)) == 0) return;
    const std::uint64_t hit = hits_[idx].fetch_add(1, std::memory_order_relaxed);
    if (hit < plan_.skip_first) return;
    const double draw = fault_draw(plan_.seed, site, hit);
    if (draw < plan_.throw_rate) {
        injected_[idx].fetch_add(1, std::memory_order_relaxed);
        throw InjectedFault(site, hit);
    }
    if (draw < plan_.throw_rate + plan_.delay_rate) {
        delayed_[idx].fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(plan_.delay);
    }
}

std::uint64_t FaultInjector::hits(FaultSite site) const noexcept {
    return hits_[static_cast<int>(site)].load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected(FaultSite site) const noexcept {
    return injected_[static_cast<int>(site)].load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::delayed(FaultSite site) const noexcept {
    return delayed_[static_cast<int>(site)].load(std::memory_order_relaxed);
}

void FaultInjector::reset_counters() noexcept {
    for (int i = 0; i < kFaultSiteCount; ++i) {
        hits_[i].store(0, std::memory_order_relaxed);
        injected_[i].store(0, std::memory_order_relaxed);
        delayed_[i].store(0, std::memory_order_relaxed);
    }
}

bool fault_injection_compiled() noexcept {
#if defined(BDSMAJ_FAULT_INJECT)
    return true;
#else
    return false;
#endif
}

}  // namespace bdsmaj::runtime
