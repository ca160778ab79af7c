#pragma once
// Process-wide scheduler: one shared FIFO thread pool for the whole
// process, plus the parallel loop the synthesis layers build on. All
// parallelism in the process — circuits of a suite (flows::run_suite) and
// service jobs (flows::SynthesisService) — funnels through global_pool(),
// so concurrent jobs share one set of workers instead of each spinning up
// its own:
//
//   * global_pool() is created lazily on first use, sized from (in
//     priority order) configure_global_pool(), the BDSMAJ_JOBS environment
//     variable, then std::thread::hardware_concurrency(). It is
//     intentionally never destroyed: its workers live for the process, so
//     there is no static-destruction-order hazard with late submitters,
//     and the pointer stays reachable (no leak report).
//
//   * parallel_for(n, jobs, body) fans a loop out over the shared pool
//     with a *caller-participating runner model*: the calling thread
//     pulls indices from a shared counter, and up to jobs - 1 helper
//     runners are submitted to the pool and do the same. Because the
//     caller always drains the counter itself if the pool is busy, a
//     parallel_for issued from inside a pool task (flows::run_suite
//     inside a service job) can never deadlock, no matter how saturated
//     the pool is — the per-call `jobs` budget is an upper bound on
//     concurrency, never a requirement. Helpers that the pool has not
//     started by the time the loop finishes are revoked, so a call never
//     waits on queue backlog it does not need.
//
// Determinism is unaffected by any of this: callers that need reproducible
// output keep tasks independent and merge results in a fixed order.

#include <cstddef>
#include <functional>

#include "runtime/thread_pool.hpp"

namespace bdsmaj::runtime {

/// Pool size global_pool() will use unless configure_global_pool() asked
/// for something else: the BDSMAJ_JOBS environment variable if it parses
/// to a positive integer (the whole string: "3x" does not), otherwise all
/// hardware threads (at least 1).
[[nodiscard]] int default_global_pool_threads() noexcept;

/// The process-wide shared pool. Created on first use; never destroyed.
[[nodiscard]] ThreadPool& global_pool();

/// Request a specific thread count for the global pool. Takes effect only
/// if the pool has not been created yet; returns false (and changes
/// nothing) once it exists. `threads` <= 0 restores the default sizing.
bool configure_global_pool(int threads);

/// Thread count of the global pool (forces creation).
[[nodiscard]] int global_pool_threads();

/// Run `body(i)` for every i in [0, n) on the calling thread plus up to
/// min(jobs, n, pool threads + 1) - 1 helper runners on the shared pool.
/// jobs <= 1 (after any effective_jobs resolution the caller did) or
/// n <= 1 runs inline on the calling thread. In the parallel path an
/// exception thrown by `body` is captured and rethrown on the calling
/// thread after every index has been attempted (first one wins); it never
/// unwinds through a pool worker. Safe to call from inside a pool task:
/// the caller participates, so progress does not depend on free workers.
void parallel_for(std::size_t n, int jobs, const std::function<void(std::size_t)>& body);

}  // namespace bdsmaj::runtime
