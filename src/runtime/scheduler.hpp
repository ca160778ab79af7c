#pragma once
// Process-wide scheduler: one shared FIFO thread pool for the whole
// process. SynthesisService jobs run on global_pool() unless the service
// is handed its own pool, so concurrent services share one set of workers
// instead of each spinning up its own. Each job runs entirely on the pool
// thread that picked it up; nothing inside a job submits further work.
//
// global_pool() is created lazily on first use, sized from (in priority
// order) configure_global_pool(), the BDSMAJ_JOBS environment variable,
// then std::thread::hardware_concurrency(). It is intentionally never
// destroyed: its workers live for the process, so there is no
// static-destruction-order hazard with late submitters, and the pointer
// stays reachable (no leak report).

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

}  // namespace bdsmaj::runtime
