#pragma once
// SynthesisService: the asynchronous, admission-controlled front door to
// the synthesis flows — the serving shape of the BDS-MAJ pipeline.
//
// Callers submit jobs (one network, or a whole benchmark suite) and get a
// std::future<FlowResult> back immediately; every future resolves. Jobs
// wait in one FIFO queue; at most `max_concurrent_jobs` run at once, each
// as one task on the service's thread pool — its own, sized to that limit,
// unless a pool is injected. This admission is the only place circuits run
// concurrently: a job runs entirely on the one pool thread that picked it
// up, a suite job one circuit after another, so a job never waits for
// another pool thread and admission control is the only queueing point.
//
// Results are byte-identical to serial runs: a job computes exactly
// run_suite(inputs, params, params.flow), however many jobs run beside
// it. tests/flows/service_test.cpp pins BLIF text, gate counts, and
// simulation signatures against serial runs.
//
// The destructor drains: it waits until every queued job has run and
// every running one has finished, then joins its own pool, while an
// injected pool is left untouched and immediately reusable.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "flows/flows.hpp"
#include "runtime/thread_pool.hpp"

namespace bdsmaj::flows {

enum class JobStatus {
    kCompleted,
    /// The job missed its deadline — shed at dispatch time (never ran;
    /// start_order is kNoStartOrder) or stopped at an in-flight checkpoint
    /// once the deadline passed. Not a failure: the future yields a
    /// FlowResult, not an exception.
    kDeadlineExceeded,
};

/// A job's configuration: the FlowOptions every flow entry point takes,
/// plus which flows to run. For a job, the inherited knobs mean:
///   * `jobs` — ignored, like FlowOptions::jobs: every job runs on one
///     thread. Submit circuits as separate jobs to run them concurrently.
///   * `deadline` / `soft_budget` — absolute instants the caller fixes
///     before submit(), so queue wait counts against both. A job whose
///     deadline passes before it reaches the front of the queue is shed
///     without running; a running one stops at its next flow checkpoint;
///     either way the future yields kDeadlineExceeded. An expired soft
///     budget degrades the remaining supernodes instead, and
///     FlowResult::degraded_supernodes counts them.
///   * `verify` — a failed sign-off fails the job (the error on the
///     future): the service never hands out an unverified wrong network.
/// Unknown flows and presets fail the job with std::invalid_argument.
struct SynthesisJobParams : FlowOptions {
    /// "all" (the four Table II flows), or one of "bdsmaj", "bdspga",
    /// "abc", "dc" (see run_flow).
    std::string flow = "all";
};

struct FlowResult {
    std::uint64_t job_id = 0;
    /// kCompleted or kDeadlineExceeded (failures surface as the future's
    /// exception instead).
    JobStatus status = JobStatus::kCompleted;
    /// Per input, the requested flows in Table II column order ("all") or
    /// the single requested flow. Empty for jobs that missed their
    /// deadline.
    std::vector<std::vector<SynthesisResult>> results;
    /// Supernodes served by a degrade-ladder stage (soft budget expired or
    /// a resource guard tripped), aggregated over `results`. 0 whenever no
    /// budget/guard was configured.
    long long degraded_supernodes = 0;
    double seconds = 0.0;  ///< wall time of the job body (not queue wait)
    /// 0-based dispatch sequence across the service lifetime: the order
    /// jobs actually started running (submission order, as the queue is
    /// FIFO). kNoStartOrder for jobs shed at dispatch.
    std::uint64_t start_order = kNoStartOrder;

    static constexpr std::uint64_t kNoStartOrder = ~std::uint64_t{0};
};

struct ServiceStats {
    int queued = 0;      ///< not yet running
    int running = 0;
    int completed = 0;
    int failed = 0;
    /// Jobs shed at dispatch or stopped in flight because their deadline
    /// passed (terminal status kDeadlineExceeded).
    int deadline_exceeded = 0;
    /// Supernodes served by a degrade-ladder stage across completed jobs
    /// (FlowResult::degraded_supernodes aggregate).
    long long degraded_supernodes = 0;
    long networks_synthesized = 0;  ///< flow results across completed jobs
    long mapped_gates = 0;          ///< aggregate over those results
    // Process-wide memoization snapshots (the caches outlive any one
    // service, so these count all activity since process start — the warm
    // state the NEXT job benefits from, not a per-service delta).
    long long cone_cache_hits = 0;
    long long cone_cache_misses = 0;
    long long cone_cache_evictions = 0;
    long long cone_cache_entries = 0;
    long long cone_cache_bytes = 0;
    long long exact_cache_hits = 0;    ///< exact-table lookups
    long long exact_cache_misses = 0;  ///< always 0: the table is compiled in
};

struct ServiceParams {
    /// Jobs allowed to run concurrently; <= 0 means the injected pool's
    /// thread count, or all hardware threads for an owned pool.
    int max_concurrent_jobs = 0;
    /// Pool to run on; nullptr = a pool the service owns, with one thread
    /// per admitted job. An injected pool must outlive the service.
    runtime::ThreadPool* pool = nullptr;
};

class SynthesisService {
public:
    using JobId = std::uint64_t;

    struct Submission {
        JobId id = 0;
        std::future<FlowResult> result;
    };

    explicit SynthesisService(const ServiceParams& params = {});
    /// Drains: runs every queued job and waits for the running ones.
    ~SynthesisService();
    SynthesisService(const SynthesisService&) = delete;
    SynthesisService& operator=(const SynthesisService&) = delete;

    /// Queue one network. FIFO admission; the future is fulfilled when the
    /// job completes or misses its deadline, or carries the job's
    /// exception.
    [[nodiscard]] Submission submit(net::Network input,
                                    const SynthesisJobParams& params = {});

    /// Queue a whole suite as one job: entry i of FlowResult::results is
    /// the flows of inputs[i], identical to a serial run over the suite.
    [[nodiscard]] Submission submit_suite(std::vector<net::Network> inputs,
                                          const SynthesisJobParams& params = {});

    [[nodiscard]] ServiceStats stats() const;

    /// Worker threads of the pool the service runs on.
    [[nodiscard]] int pool_threads() const noexcept { return pool_.size(); }

private:
    struct Job;

    Submission enqueue(std::vector<net::Network> inputs,
                       const SynthesisJobParams& params);
    void pump_locked();
    void execute(const std::shared_ptr<Job>& job);

    const int max_concurrent_;

    mutable std::mutex mutex_;
    std::condition_variable idle_cv_;
    std::deque<std::shared_ptr<Job>> queue_;
    JobId next_id_ = 0;
    std::uint64_t next_start_order_ = 0;
    int running_ = 0;  ///< dispatched pool tasks still touching `this`
    int completed_ = 0;
    int failed_ = 0;
    int deadline_exceeded_ = 0;
    long long degraded_supernodes_ = 0;
    long networks_synthesized_ = 0;
    long mapped_gates_ = 0;
    /// Null when the pool is injected. Declared last, so it is destroyed
    /// (its workers joined) first: they run jobs that use the members above.
    std::unique_ptr<runtime::ThreadPool> owned_pool_;
    runtime::ThreadPool& pool_;
};

}  // namespace bdsmaj::flows
