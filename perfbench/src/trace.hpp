#pragma once
// In-memory span recorder for the traced benchmark run. Spans are taken in
// the benchmark's own code around each call into a layer of the program;
// they are kept in memory and written out once, at the end, as Chrome
// trace-event JSON (opens offline in Perfetto or chrome://tracing).

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
    std::string name;     ///< "<layer>.<call>", e.g. "cec.check_equivalent"
    std::uint64_t job = 0;
    int parent = -1;      ///< index of the enclosing span, -1 for a job root
    int thread = 0;       ///< trace row: 0 = closed-loop client / generator
    Clock::time_point start;
    Clock::time_point end;
};

class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Opens a span starting now; returns its index (-1 when disabled).
    int begin(std::string name, std::uint64_t job, int parent);
    /// Closes a span opened by begin().
    void end(int index);
    /// Records a span whose bounds were measured elsewhere.
    void add(Span span);

    /// Self time per span name: duration minus the time covered by its
    /// direct children (which never overlap here), summed over all spans
    /// of that name.
    [[nodiscard]] std::map<std::string, double> self_seconds() const;

    /// Writes every span as a complete ("ph":"X") trace event. Returns
    /// false when the file cannot be written.
    bool write_chrome_json(const std::string& path) const;

private:
    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::deque<Span> spans_;  ///< guarded by mutex_
};

/// Times one layer call when the tracer is on; free of clock reads when it
/// is off.
class ScopedSpan {
public:
    ScopedSpan(Tracer& tracer, std::string name, std::uint64_t job, int parent)
        : tracer_(tracer), index_(tracer.begin(std::move(name), job, parent)) {}
    ~ScopedSpan() { tracer_.end(index_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    [[nodiscard]] int index() const { return index_; }

private:
    Tracer& tracer_;
    int index_;
};

}  // namespace perfbench
