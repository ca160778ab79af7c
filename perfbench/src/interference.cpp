#include "interference.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

int pin_to_current_cpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0) return -1;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

ProcessTimes process_times() {
    ProcessTimes t;
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    t.cpu_s = static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
    std::error_code ec;
    for (const auto& task : std::filesystem::directory_iterator("/proc/self/task", ec)) {
        std::ifstream in(task.path() / "schedstat");
        unsigned long long run_ns = 0, delay_ns = 0;
        if (in >> run_ns >> delay_ns) t.run_delay_s += 1e-9 * static_cast<double>(delay_ns);
    }
    return t;
}

HostTicks host_ticks() {
    std::ifstream in("/proc/stat");
    std::string line;
    HostTicks h;
    if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return h;
    std::istringstream fields(line.substr(4));
    double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0, steal = 0;
    fields >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
    h.busy = user + nice + system + irq + softirq;
    h.steal = steal;
    return h;
}

double steal_per_cpu_second(const HostTicks& before, const HostTicks& after) {
    const double busy = after.busy - before.busy;
    const double steal = after.steal - before.steal;
    return busy > 0.0 && steal > 0.0 ? steal / busy : 0.0;
}

double job_seconds(double wall_s, double cpu_s, double run_delay_s, double steal_ratio,
                   double slowdown) {
    const double blocked = std::max(0.0, wall_s - run_delay_s - (1.0 + steal_ratio) * cpu_s);
    return cpu_s / slowdown + blocked;
}

double probe_seconds() {
    static std::vector<std::uint64_t> table(1u << 16);
    timespec t0{}, t1{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
    std::fill(table.begin(), table.end(), 0);
    const std::size_t mask = table.size() - 1;
    std::uint64_t x = 0x9e3779b97f4a7c15ull, found = 0;
    for (int i = 0; i < 120000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t key = x % 50000 + 1;
        std::size_t slot = (key * 0xff51afd7ed558ccdull) >> 48;
        while (table[slot] != 0 && table[slot] != key) slot = (slot + 1) & mask;
        if (table[slot] == key) ++found;
        else table[slot] = key;
    }
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
    static volatile std::uint64_t sink;
    sink = found;
    return static_cast<double>(t1.tv_sec - t0.tv_sec) +
           1e-9 * static_cast<double>(t1.tv_nsec - t0.tv_nsec);
}

std::vector<double> slowdowns(const std::vector<double>& probe_s) {
    std::vector<double> out(probe_s.size(), 1.0);
    for (std::size_t i = 0; i < probe_s.size(); ++i) {
        const std::size_t lo = i >= 4 ? i - 4 : 0;
        const std::size_t hi = std::min(probe_s.size(), i + 5);
        std::vector<double> window(probe_s.begin() + static_cast<std::ptrdiff_t>(lo),
                                   probe_s.begin() + static_cast<std::ptrdiff_t>(hi));
        std::nth_element(window.begin(), window.begin() + static_cast<std::ptrdiff_t>(window.size() / 2),
                         window.end());
        out[i] = std::pow(window[window.size() / 2] / kProbeReferenceSeconds, kSlowdownExponent);
    }
    return out;
}

}  // namespace perfbench
