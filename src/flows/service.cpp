#include "flows/service.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "decomp/cone_cache.hpp"
#include "decomp/exact.hpp"
#include "runtime/fault_inject.hpp"

namespace bdsmaj::flows {

namespace {

using Clock = std::chrono::steady_clock;

int admission_limit(const ServiceParams& params) {
    if (params.max_concurrent_jobs > 0) return params.max_concurrent_jobs;
    if (params.pool != nullptr) return params.pool->size();
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

struct SynthesisService::Job {
    JobId id = 0;
    std::vector<net::Network> inputs;
    SynthesisJobParams params;
    std::promise<FlowResult> promise;
    /// Cooperative cancellation token; shared with the flow layer while
    /// the job runs. Heap-shared so cancel() can fire after execute()
    /// already copied the pointer.
    std::atomic<bool> cancel_requested{false};
    std::uint64_t start_order = FlowResult::kNoStartOrder;
};

/// The FlowResult of a job that never ran (cancelled while queued, or shed
/// because its deadline passed before dispatch).
static FlowResult unstarted_result(std::uint64_t id, JobStatus status) {
    FlowResult out;
    out.job_id = id;
    out.status = status;
    return out;
}

SynthesisService::SynthesisService(const ServiceParams& params)
    : max_concurrent_(admission_limit(params)),
      owned_pool_(params.pool != nullptr
                      ? nullptr
                      : std::make_unique<runtime::ThreadPool>(max_concurrent_)),
      pool_(params.pool != nullptr ? *params.pool : *owned_pool_) {}

SynthesisService::~SynthesisService() {
    std::unique_lock<std::mutex> lock(mutex_);
    // Cancel everything still queued and request cooperative stops of the
    // running jobs, then wait for them — their pool tasks capture `this`
    // and must not outlive it.
    for (const std::shared_ptr<Job>& job : queue_) {
        ++cancelled_;
        job->promise.set_value(unstarted_result(job->id, JobStatus::kCancelled));
    }
    queue_.clear();
    for (auto& [id, job] : running_jobs_) {
        job->cancel_requested.store(true, std::memory_order_relaxed);
    }
    idle_cv_.wait(lock, [this] { return inflight_ == 0; });
    // An owned pool's workers (each may still be resolving its job's
    // promise) are joined next, as owned_pool_ is destroyed; an injected
    // pool is left to its owner.
}

SynthesisService::Submission SynthesisService::enqueue(
    std::vector<net::Network> inputs, const SynthesisJobParams& params) {
    auto job = std::make_shared<Job>();
    job->inputs = std::move(inputs);
    job->params = params;
    Submission submission;
    submission.result = job->promise.get_future();
    std::lock_guard<std::mutex> lock(mutex_);
    job->id = ++next_id_;
    submission.id = job->id;
    queue_.push_back(std::move(job));
    pump_locked();
    return submission;
}

SynthesisService::Submission SynthesisService::submit(
    net::Network input, const SynthesisJobParams& params) {
    std::vector<net::Network> inputs;
    inputs.push_back(std::move(input));
    return enqueue(std::move(inputs), params);
}

SynthesisService::Submission SynthesisService::submit_suite(
    std::vector<net::Network> inputs, const SynthesisJobParams& params) {
    return enqueue(std::move(inputs), params);
}

void SynthesisService::pump_locked() {
    while (!paused_ && running_ < max_concurrent_ && !queue_.empty()) {
        // Earliest-deadline-first over the jobs that have deadlines, then
        // FIFO over the deadline-less ones — plain FIFO (and zero clock
        // reads) when no queued job carries a deadline, which keeps the
        // default path byte-identical.
        std::size_t pick = 0;
        for (std::size_t i = 1; i < queue_.size(); ++i) {
            const auto& deadline = queue_[i]->params.deadline;
            const auto& best = queue_[pick]->params.deadline;
            if (deadline && (!best || *deadline < *best)) pick = i;
        }
        std::shared_ptr<Job> job = queue_[pick];
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
        if (job->params.deadline && Clock::now() >= *job->params.deadline) {
            // Admission-time shedding: the job cannot start before its
            // deadline, so it never runs — terminal status, no start
            // order, no pool task.
            ++deadline_exceeded_;
            idle_cv_.notify_all();  // the queue may just have drained
            job->promise.set_value(
                unstarted_result(job->id, JobStatus::kDeadlineExceeded));
            continue;
        }
        job->start_order = next_start_order_++;
        running_jobs_.emplace(job->id, job);
        ++running_;
        ++inflight_;
        pool_.submit([this, job] { execute(job); });
    }
}

void SynthesisService::execute(const std::shared_ptr<Job>& job) {
    const auto start = Clock::now();
    FlowResult out;
    out.job_id = job->id;
    out.status = JobStatus::kCompleted;
    out.start_order = job->start_order;
    std::exception_ptr error;
    long networks = 0;
    long gates = 0;
    try {
        // Chaos site: a fault here exercises the job-level containment —
        // inside the try, so the promise is still fulfilled (kFailed path)
        // and the service counters stay consistent.
        runtime::fault_point(runtime::FaultSite::kWorkerTaskEntry);
        if (job->params.cancel != nullptr) {
            throw std::invalid_argument(
                "SynthesisService: jobs are cancelled through cancel(id), "
                "not a caller-supplied token");
        }
        // The job's token, observed by the flows' checkpoints.
        job->params.cancel = &job->cancel_requested;
        out.results = run_suite(job->inputs, job->params, job->params.flow);
        out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
        for (const std::vector<SynthesisResult>& per_input : out.results) {
            for (const SynthesisResult& r : per_input) {
                ++networks;
                gates += r.mapped.gate_count;
                out.degraded_supernodes += r.engine_stats.degraded_supernodes;
            }
        }
    } catch (const decomp::FlowCancelled&) {
        out.status = JobStatus::kCancelled;
        out.results.clear();
        out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    } catch (const decomp::DeadlineExceeded&) {
        out.status = JobStatus::kDeadlineExceeded;
        out.results.clear();
        out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    } catch (...) {
        error = std::current_exception();
    }
    {
        // Counters update before the promise resolves, so a caller that
        // observed the future ready sees the job in stats() too.
        std::lock_guard<std::mutex> lock(mutex_);
        --running_;
        running_jobs_.erase(job->id);
        if (error) {
            ++failed_;
        } else if (out.status == JobStatus::kCancelled) {
            ++cancelled_;
        } else if (out.status == JobStatus::kDeadlineExceeded) {
            ++deadline_exceeded_;
        } else {
            ++completed_;
            networks_synthesized_ += networks;
            mapped_gates_ += gates;
            degraded_supernodes_ += out.degraded_supernodes;
        }
        pump_locked();
        --inflight_;
        idle_cv_.notify_all();
    }
    // Last action, outside the lock and without touching `this`: the
    // service may be destroyed as soon as inflight_ hit zero.
    if (error) {
        job->promise.set_exception(error);
    } else {
        job->promise.set_value(std::move(out));
    }
}

bool SynthesisService::cancel(JobId id) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if ((*it)->id != id) continue;
        const std::shared_ptr<Job> job = *it;
        queue_.erase(it);
        ++cancelled_;
        idle_cv_.notify_all();  // the queue may just have drained
        job->promise.set_value(unstarted_result(job->id, JobStatus::kCancelled));
        return true;
    }
    // Running: request a cooperative stop; the flow observes the token at
    // its next checkpoint and the job resolves as kCancelled then.
    const auto it = running_jobs_.find(id);
    if (it != running_jobs_.end()) {
        it->second->cancel_requested.store(true, std::memory_order_relaxed);
        return true;
    }
    return false;
}

void SynthesisService::pause() {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = true;
}

void SynthesisService::resume() {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
    pump_locked();
}

void SynthesisService::wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] {
        return queue_.empty() && inflight_ == 0;
    });
}

bool SynthesisService::wait_idle_for(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return idle_cv_.wait_for(lock, timeout, [this] {
        return queue_.empty() && inflight_ == 0;
    });
}

ServiceStats SynthesisService::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    ServiceStats s;
    s.queued = static_cast<int>(queue_.size());
    s.running = running_;
    s.completed = completed_;
    s.cancelled = cancelled_;
    s.failed = failed_;
    s.deadline_exceeded = deadline_exceeded_;
    s.degraded_supernodes = degraded_supernodes_;
    s.networks_synthesized = networks_synthesized_;
    s.mapped_gates = mapped_gates_;
    const decomp::ConeCacheStats cone = decomp::ConeCache::instance().stats();
    s.cone_cache_hits = cone.hits;
    s.cone_cache_misses = cone.misses;
    s.cone_cache_evictions = cone.evictions;
    s.cone_cache_entries = cone.entries;
    s.cone_cache_bytes = cone.bytes;
    const decomp::ExactCacheStats exact = decomp::ExactSynthesisCache::instance().stats();
    s.exact_cache_hits = static_cast<long long>(exact.hits);
    s.exact_cache_misses = static_cast<long long>(exact.misses);
    return s;
}

}  // namespace bdsmaj::flows
