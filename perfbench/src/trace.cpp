#include "trace.hpp"

#include <fstream>
#include <vector>

namespace perfbench {

namespace {

double seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

}  // namespace

int Tracer::begin(std::string name, std::uint64_t job, int parent) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    const Clock::time_point now = Clock::now();
    spans_.push_back({std::move(name), job, parent, 0, now, now});
    return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int index) {
    if (index < 0) return;
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end = now;
}

void Tracer::add(Span span) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::map<std::string, double> Tracer::self_seconds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_) {
        if (s.parent >= 0) child_time[static_cast<std::size_t>(s.parent)] += seconds(s.end - s.start);
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        out[spans_[i].name] += seconds(spans_[i].end - spans_[i].start) - child_time[i];
    }
    return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const double ts = std::chrono::duration<double, std::micro>(s.start - origin_).count();
        const double dur = std::chrono::duration<double, std::micro>(s.end - s.start).count();
        os << (i ? ",\n" : "") << "{\"name\":\"" << s.name << "\",\"cat\":\""
           << s.name.substr(0, s.name.find('.')) << "\",\"ph\":\"X\",\"ts\":" << ts
           << ",\"dur\":" << dur << ",\"pid\":1,\"tid\":" << s.thread
           << ",\"args\":{\"job\":" << s.job << ",\"span\":" << i
           << ",\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os.flush());
}

}  // namespace perfbench
