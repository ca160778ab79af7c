#pragma once
// SynthesisService: the asynchronous, admission-controlled front door to
// the synthesis flows — the serving shape of the BDS-MAJ pipeline.
//
// Callers submit jobs (one network, or a whole benchmark suite) and get a
// std::future<FlowResult> back immediately. Jobs wait in two priority
// lanes (kHigh drains before kNormal; FIFO within a lane); at most
// `max_concurrent_jobs` run at once, each as one task on the shared
// process pool (runtime::global_pool() unless a pool is injected). Inside
// a suite job, the per-job `jobs` budget bounds how many circuits run at
// once, so one heavy job cannot starve the queue; a single-network job
// runs on the one pool thread that picked it up.
//
// Because run_suite's parallel_for is caller-participating, a job always
// makes progress on the pool thread that runs it even when the pool is
// saturated: admission control is the only queueing point, and there is
// no nested-parallelism deadlock.
//
// Results are byte-identical to serial runs: a job computes exactly
// run_suite(inputs, params, params.flow), which is deterministic at any
// budget. tests/flows/service_test.cpp pins BLIF text, gate counts, and
// simulation signatures against jobs=1 serial runs.
//
// Lifecycle: cancel(id) removes a still-queued job immediately, and
// requests cooperative cancellation of a running one — the job's token is
// set and the flow stops at its next checkpoint (between supernodes
// inside a BDS decomposition, between the flows of an "all" job, between
// circuits in a suite; the ABC/DC passes themselves are not
// interruptible); either way the future yields status kCancelled. pause() holds admission (queued
// jobs stay queued; running ones finish) and resume() releases it — the
// drain/maintenance switch, also what makes cancellation deterministic to
// test. The destructor cancels everything still queued, requests
// cancellation of running jobs, and waits for them; the shared pool is
// untouched and immediately reusable.

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>
#include <unordered_map>
#include <vector>

#include "flows/flows.hpp"
#include "runtime/scheduler.hpp"

namespace bdsmaj::flows {

enum class JobStatus {
    kQueued,
    kRunning,
    kCompleted,
    kCancelled,
    kFailed,
    /// Terminal: the job missed its deadline — shed at dispatch time
    /// (never ran; start_order is kNoStartOrder) or stopped at an in-flight
    /// checkpoint once the deadline passed. Not a failure: the future
    /// yields a FlowResult, not an exception.
    kDeadlineExceeded,
};

/// Admission lane: kHigh jobs always dispatch before kNormal ones;
/// within a lane admission stays FIFO.
enum class JobPriority { kNormal, kHigh };

/// A job's configuration: the FlowOptions every flow entry point takes,
/// plus which flows to run and the admission lane. For a job, the
/// inherited knobs mean:
///   * `jobs` — how many circuits of a suite job run at once (a
///     single-network job runs on one thread). Never changes the result.
///   * `deadline` / `soft_budget` — absolute instants the caller fixes
///     before submit(), so queue wait counts against both. A job whose
///     deadline passes before it dispatches is shed without running; a
///     running one stops at its next flow checkpoint; either way the
///     future yields kDeadlineExceeded. Within a priority lane, jobs with
///     deadlines dispatch earliest-deadline-first ahead of deadline-less
///     jobs (which stay FIFO among themselves). An expired soft budget
///     degrades the remaining supernodes instead, and
///     FlowResult::degraded_supernodes counts them.
///   * `verify` — a failed sign-off fails the job (status kFailed, the
///     error on the future): the service never hands out an unverified
///     wrong network.
///   * `cancel` — must stay null. The service owns each job's token
///     (see cancel()); a job that brings its own fails with
///     std::invalid_argument, as do unknown flows and presets.
struct SynthesisJobParams : FlowOptions {
    /// "all" (the four Table II flows), or one of "bdsmaj", "bdspga",
    /// "abc", "dc" (see run_flow).
    std::string flow = "all";
    JobPriority priority = JobPriority::kNormal;
};

struct FlowResult {
    std::uint64_t job_id = 0;
    /// kCompleted, kCancelled, or kDeadlineExceeded (failures surface as
    /// the future's exception instead).
    JobStatus status = JobStatus::kCompleted;
    /// Per input, the requested flows in Table II column order ("all") or
    /// the single requested flow. Empty for cancelled/shed jobs.
    std::vector<std::vector<SynthesisResult>> results;
    /// Supernodes served by a degrade-ladder stage (soft budget expired or
    /// a resource guard tripped), aggregated over `results`. 0 whenever no
    /// budget/guard was configured.
    long long degraded_supernodes = 0;
    double seconds = 0.0;  ///< wall time of the job body (not queue wait)
    /// 0-based dispatch sequence across the service lifetime: the order
    /// jobs actually started running (what the priority lanes decide).
    /// Meaningless (kNoStartOrder) for jobs cancelled while queued.
    std::uint64_t start_order = kNoStartOrder;

    static constexpr std::uint64_t kNoStartOrder = ~std::uint64_t{0};
};

struct ServiceStats {
    int queued = 0;      ///< both lanes, not yet running
    int queued_high = 0; ///< the kHigh-lane subset of `queued`
    int running = 0;
    int completed = 0;
    int cancelled = 0;   ///< queued removals + cooperatively stopped runs
    int failed = 0;
    /// Jobs shed at dispatch or stopped in flight because their deadline
    /// passed (terminal status kDeadlineExceeded).
    int deadline_exceeded = 0;
    /// Supernodes served by a degrade-ladder stage across completed jobs
    /// (FlowResult::degraded_supernodes aggregate).
    long long degraded_supernodes = 0;
    long networks_synthesized = 0;  ///< flow results across completed jobs
    long mapped_gates = 0;          ///< aggregate over those results
    double mapped_area_um2 = 0.0;
    /// Cones served as ones-counting symmetric networks across completed
    /// jobs (EngineStats::symmetric_steps aggregate).
    long long symmetric_cones_served = 0;
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
    /// Jobs allowed to run concurrently; <= 0 means the pool thread count.
    int max_concurrent_jobs = 0;
    /// Pool to run on; nullptr = runtime::global_pool(). An injected pool
    /// must outlive the service.
    runtime::ThreadPool* pool = nullptr;
    /// Start with admission held (see pause()).
    bool start_paused = false;
};

class SynthesisService {
public:
    using JobId = std::uint64_t;

    struct Submission {
        JobId id = 0;
        std::future<FlowResult> result;
    };

    explicit SynthesisService(const ServiceParams& params = {});
    ~SynthesisService();
    SynthesisService(const SynthesisService&) = delete;
    SynthesisService& operator=(const SynthesisService&) = delete;

    /// Queue one network. FIFO admission; the future is fulfilled when the
    /// job completes (or is cancelled), or carries the job's exception.
    [[nodiscard]] Submission submit(net::Network input,
                                    const SynthesisJobParams& params = {});

    /// Queue a whole suite as one job: entry i of FlowResult::results is
    /// the flows of inputs[i], identical to a serial run over the suite.
    [[nodiscard]] Submission submit_suite(std::vector<net::Network> inputs,
                                          const SynthesisJobParams& params = {});

    /// Cancel a job. Still-queued jobs are removed immediately (their
    /// future yields status kCancelled at once). Running jobs get their
    /// cancellation token set and stop cooperatively at the next flow
    /// checkpoint — the future then yields kCancelled, unless the job
    /// outraced the request and completed. Returns false only when the
    /// job is already finished or unknown.
    bool cancel(JobId id);

    /// Hold admission: running jobs finish, queued jobs stay queued until
    /// resume(). Idempotent.
    void pause();
    void resume();

    /// Block until no job is queued or running.
    ///
    /// Paused-wait contract: with admission paused and jobs still queued,
    /// nothing will ever dispatch them, so this blocks until some other
    /// thread calls resume() (or cancels every queued job). A paused,
    /// non-empty service with no such thread makes wait_idle() wait
    /// forever by design — use wait_idle_for() when that is a reachable
    /// state.
    void wait_idle();

    /// Bounded wait_idle(): returns true once no job is queued or running,
    /// false if the timeout expires first. This is the chaos-suite (and
    /// shutdown-watchdog) primitive: under fault injection or a paused
    /// queue, "did the service drain within T" is a checkable property
    /// where wait_idle() would hang.
    [[nodiscard]] bool wait_idle_for(std::chrono::milliseconds timeout);

    [[nodiscard]] ServiceStats stats() const;

private:
    struct Job;

    Submission enqueue(std::vector<net::Network> inputs,
                       const SynthesisJobParams& params);
    void pump_locked();
    void execute(const std::shared_ptr<Job>& job);

    runtime::ThreadPool& pool_;
    const int max_concurrent_;

    mutable std::mutex mutex_;
    std::condition_variable idle_cv_;
    std::deque<std::shared_ptr<Job>> queue_;       ///< kNormal lane
    std::deque<std::shared_ptr<Job>> queue_high_;  ///< kHigh lane
    /// Running jobs by id, for cooperative cancellation of in-flight work.
    std::unordered_map<JobId, std::shared_ptr<Job>> running_jobs_;
    JobId next_id_ = 0;
    std::uint64_t next_start_order_ = 0;
    int running_ = 0;
    int inflight_ = 0;  ///< dispatched pool tasks still touching `this`
    bool paused_ = false;
    int completed_ = 0;
    int cancelled_ = 0;
    int failed_ = 0;
    int deadline_exceeded_ = 0;
    long long degraded_supernodes_ = 0;
    long networks_synthesized_ = 0;
    long mapped_gates_ = 0;
    double mapped_area_um2_ = 0.0;
    long long symmetric_cones_served_ = 0;
};

}  // namespace bdsmaj::flows
