#include "flows/service.hpp"

#include <chrono>
#include <exception>
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
    std::uint64_t start_order = FlowResult::kNoStartOrder;
};

SynthesisService::SynthesisService(const ServiceParams& params)
    : max_concurrent_(admission_limit(params)),
      owned_pool_(params.pool != nullptr
                      ? nullptr
                      : std::make_unique<runtime::ThreadPool>(max_concurrent_)),
      pool_(params.pool != nullptr ? *params.pool : *owned_pool_) {}

SynthesisService::~SynthesisService() {
    // Drain: every queued job still runs, and the pool tasks capture
    // `this`, so none may outlive it.
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
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
    while (running_ < max_concurrent_ && !queue_.empty()) {
        std::shared_ptr<Job> job = std::move(queue_.front());
        queue_.pop_front();
        if (job->params.deadline && Clock::now() >= *job->params.deadline) {
            // Admission-time shedding: the job cannot start before its
            // deadline, so it never runs — terminal status, no start
            // order, no pool task.
            ++deadline_exceeded_;
            FlowResult shed;
            shed.job_id = job->id;
            shed.status = JobStatus::kDeadlineExceeded;
            job->promise.set_value(std::move(shed));
            continue;
        }
        job->start_order = next_start_order_++;
        ++running_;
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
        // inside the try, so the promise still carries the error and the
        // service counters stay consistent.
        runtime::fault_point(runtime::FaultSite::kWorkerTaskEntry);
        out.results = run_suite(job->inputs, job->params, job->params.flow);
        out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
        for (const std::vector<SynthesisResult>& per_input : out.results) {
            for (const SynthesisResult& r : per_input) {
                ++networks;
                gates += r.mapped.gate_count;
                out.degraded_supernodes += r.engine_stats.degraded_supernodes;
            }
        }
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
        if (error) {
            ++failed_;
        } else if (out.status == JobStatus::kDeadlineExceeded) {
            ++deadline_exceeded_;
        } else {
            ++completed_;
            networks_synthesized_ += networks;
            mapped_gates_ += gates;
            degraded_supernodes_ += out.degraded_supernodes;
        }
        pump_locked();
        idle_cv_.notify_all();
    }
    // Last action, outside the lock and without touching `this`: the
    // service may be destroyed as soon as running_ hit zero.
    if (error) {
        job->promise.set_exception(error);
    } else {
        job->promise.set_value(std::move(out));
    }
}

ServiceStats SynthesisService::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    ServiceStats s;
    s.queued = static_cast<int>(queue_.size());
    s.running = running_;
    s.completed = completed_;
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
