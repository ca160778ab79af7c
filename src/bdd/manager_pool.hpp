#pragma once
// Process-wide pool of reusable BDD managers.
//
// The BDS flow gives every supernode a fresh local manager; on real suites
// that is tens of thousands of construct/destruct cycles whose cost is
// dominated by allocating (and then freeing) the node store, the per-level
// unique tables and the computed table. The pool keeps retired managers
// and hands them back through Manager::reset(), which restores the exact
// observable state of a fresh Manager while retaining the grown vector
// capacities — so pooled reuse is a pure allocation-traffic optimization
// and provably cannot change any synthesis result.
//
// Usage is RAII through Lease: acquire() resets an idle manager (or
// constructs one) and the lease returns it on destruction. Thread-safe;
// leases from different threads hand out distinct managers, so circuits
// synthesized concurrently (flows::run_suite, service jobs) never share one.

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "bdd/bdd.hpp"

namespace bdsmaj::bdd {

class ManagerPool {
public:
    /// The singleton shared by all flows/jobs/threads.
    [[nodiscard]] static ManagerPool& instance();

    class Lease {
    public:
        Lease(Lease&& o) noexcept : pool_(o.pool_), mgr_(std::move(o.mgr_)) {
            o.pool_ = nullptr;
        }
        Lease(const Lease&) = delete;
        Lease& operator=(const Lease&) = delete;
        Lease& operator=(Lease&&) = delete;
        ~Lease() {
            if (pool_ != nullptr) pool_->release(std::move(mgr_));
        }

        [[nodiscard]] Manager& operator*() const noexcept { return *mgr_; }
        [[nodiscard]] Manager* operator->() const noexcept { return mgr_.get(); }

    private:
        friend class ManagerPool;
        Lease(ManagerPool* pool, std::unique_ptr<Manager> mgr)
            : pool_(pool), mgr_(std::move(mgr)) {}

        ManagerPool* pool_;
        std::unique_ptr<Manager> mgr_;
    };

    /// A manager in the state Manager(num_vars, params) would construct;
    /// returned to the pool when the lease dies. All Bdd handles into it
    /// must be released before then.
    [[nodiscard]] Lease acquire(int num_vars, const ManagerParams& params);

    /// Cap on retained idle managers; extras are destroyed on release.
    void set_max_idle(std::size_t n);
    [[nodiscard]] std::size_t idle_count() const;
    /// Drop all idle managers (tests; memory pressure).
    void clear();

private:
    ManagerPool() = default;
    void release(std::unique_ptr<Manager> mgr);

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Manager>> idle_;
    std::size_t max_idle_ = 64;
};

}  // namespace bdsmaj::bdd
