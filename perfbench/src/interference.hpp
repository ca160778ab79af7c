#pragma once
// Time the host takes away from the benchmark process. On a shared machine
// a job's wall time also holds the time its threads waited for a CPU held
// by another task (run-queue delay) and the time the hypervisor ran another
// guest on its virtual CPU (steal). Both depend on the neighbours, not on
// the program. With both read here,
//
//   blocked = wall - CPU time - run-queue delay - steal
//
// is the time the job slept or blocked (a delay the program itself adds,
// or an injected one, still counts). Run-queue delay and CPU time are exact per thread (/proc/<tid>/schedstat;
// on kernels with paravirtual steal accounting the CPU time already
// excludes steal). Steal is known only per CPU in 10 ms ticks, so a run
// charges each job its CPU time times the run's steal-to-busy ratio.
//
// The neighbours also slow the CPU itself down (shared caches, memory
// bandwidth, clock speed), and that shows in CPU time too. A speed probe
// measures it: a fixed piece of the benchmark's own work, timed on the
// jobs' CPU between jobs. Dividing a job's CPU time by the slowdown the
// probe shows against its frozen reference time gives its CPU time at the
// reference speed, and the job's time is that plus the time it blocked.

#include <vector>

namespace perfbench {

struct ProcessTimes {
    double cpu_s = 0.0;        ///< CPU time of the whole process
    double run_delay_s = 0.0;  ///< summed over its live threads
};

/// CPU time and run-queue delay of this process so far.
ProcessTimes process_times();

struct HostTicks {
    double busy = 0.0;   ///< user, nice, system, irq and softirq ticks of all CPUs
    double steal = 0.0;  ///< steal ticks of all CPUs
};

/// The machine-wide counters of /proc/stat (zeros where unavailable).
HostTicks host_ticks();

/// Steal per second of CPU time between two readings (0 without steal).
double steal_per_cpu_second(const HostTicks& before, const HostTicks& after);

/// A job's time with the host's interference taken out: its CPU time at
/// the reference speed, plus the time it slept or blocked (its wall time
/// less its CPU time, its threads' run-queue delay and its estimated
/// steal). A sleep is not scaled by the machine's slowdown.
double job_seconds(double wall_s, double cpu_s, double run_delay_s, double steal_ratio,
                   double slowdown);

/// Keeps this thread, and every thread it starts later, on the CPU it is
/// running on, so that the speed probe measures the CPU the jobs run on
/// (neighbours load the virtual CPUs unevenly). Returns that CPU, or -1
/// when the process cannot be pinned.
int pin_to_current_cpu();

/// CPU time of the speed probe on the reference machine, idle.
inline constexpr double kProbeReferenceSeconds = 0.00075;

/// Runs the speed probe once and returns its CPU time: 120k random inserts
/// and lookups in a 512 KiB open-addressing table, owned by the benchmark,
/// so a change to the program never changes it. Of the kernels tried
/// (this one, a 4 MiB table with a sort, and the benchmark's own BLIF
/// evaluator), this one followed the program best while the host's speed
/// drifted by 40%: divided by it, the CPU time of a verified `paper` job
/// varied 2.8% (log standard deviation) instead of 7.6%, and of an
/// `exact-aggressive` job 5.1% instead of 10.7%.
double probe_seconds();

/// How much faster job time grows than probe time when the host slows
/// down: the probe's table fits in a core's own cache, the program's BDDs
/// and clause databases do not. Fitted on 24 runs (8 seeds of each
/// workload) in a period when the raw wall-clock figures spread up to 0.25
/// of their medians. The worst spread of p50, tail and throughput was
/// 0.116 with the plain probe ratio, 0.080 with an exponent of 1.4, 0.070
/// with 1.7 and 0.065 with 2.0; the mean spread was lowest (0.034-0.035)
/// at 1.6-1.7.
inline constexpr double kSlowdownExponent = 1.7;

/// Slowdown of the machine at job i: the median of the probes taken after
/// jobs i-4 .. i+4, over the reference time, to the power
/// kSlowdownExponent.
std::vector<double> slowdowns(const std::vector<double>& probe_s);

}  // namespace perfbench
