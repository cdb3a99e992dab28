/**
 * @file
 * Shared pieces of the benchmark harness: run options, the raw-sample
 * report the harness hands to perfbench/run.py, memory probes, child
 * daemons, and the in-process reference results that every served or
 * distributed reply is checked against.
 */
#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <sys/types.h>

#include "runner/grid_runner.hh"
#include "support/rng.hh"
#include "trace.hh"

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out;     ///< raw report path
    std::string spans;   ///< Chrome trace path (traced run only)
    std::string binDir;  ///< where csched_serve / csched_workerd live
    std::string runDir;  ///< scratch dir for sockets and port files
};


/** One measured operation: a unit schedule, a request, or a grid job. */
struct Op
{
    std::string unit;
    double seconds = 0.0;
    bool traced = false;
    int batch = 0;
    bool ok = true;
    int makespan = 0;
    uint64_t traceOp = 0;  ///< tracer op id; its spans become "layers"
    std::map<std::string, double> values;
};

/** One repetition of the set-up, or one batch of operations. */
struct Timed
{
    double seconds = 0.0;
    bool traced = false;
    uint64_t traceOp = 0;
    std::map<std::string, double> values;
};

/** Everything one harness run measured, before any statistics. */
struct Report
{
    std::vector<Timed> setups;
    std::vector<Op> ops;
    std::vector<Timed> batches;
    double windowSeconds = 0.0;
    std::map<std::string, double> values;
    std::vector<std::string> failures;
    int attempted = 0;
    int failed = 0;
    /** Traced run only: every traced replay matched the untraced run. */
    bool fidelity = true;

    /** Count one operation; a non-empty @p why marks it failed. */
    void count(bool ok, const std::string &why);
};

/**
 * Whether to set up once more.  setup_s is the median of nine set-ups,
 * or of up to 25 while they add up to less than a second, so that
 * millisecond daemon starts get enough samples to be steady.
 */
bool moreSetups(const Report &report);

/** Write @p report (plus per-op span sums) as the raw JSON document. */
bool writeReport(const Options &options, const Report &report,
                 const Tracer &tracer);

/** A field of /proc/<pid>/status ("VmRSS", "VmHWM") in megabytes. */
double processStatusMb(pid_t pid, const std::string &field);

/** The same field for this process. */
double selfStatusMb(const std::string &field);

/** Reset this process's peak-RSS mark so VmHWM measures from now. */
void resetPeakRss();

/**
 * CPU seconds (user + system) this process has used.  Under a
 * hypervisor that reports steal time, CPU time leaves out the time the
 * host gave this machine's CPUs to others, so unlike wall time it does
 * not move with the load of a shared host.
 */
double selfCpuSeconds();

/** The live descendants of @p root, not @p root itself. */
std::vector<pid_t> descendants(pid_t root);

/**
 * CPU seconds (user + system) used by @p root and its live
 * descendants, including the children they have reaped.  Resolution
 * is one clock tick (10 ms).
 */
double treeCpuSeconds(pid_t root);

/**
 * Host-wide CPU time in clock ticks from /proc/stat: every state, and
 * the steal time among them.  Their deltas give the share of the
 * machine's CPU time the host took away during a window.
 */
struct HostCpu
{
    double total = 0.0;
    double steal = 0.0;
};
HostCpu hostCpu();

/** steal / total between two hostCpu() readings; 0 when none passed. */
double stealRatio(const HostCpu &begin, const HostCpu &end);

/**
 * Start @p argv[0] with its arguments as a child that dies with the
 * harness; its stdout goes to our stderr.  Returns -1 on failure.
 */
pid_t spawnProcess(const std::vector<std::string> &argv);

/**
 * Stop a child: SIGTERM, up to @p grace_ms for it to exit, then
 * SIGKILL.  Always reaps it.
 */
void stopProcess(pid_t pid, int grace_ms = 5000);

/** A Fisher-Yates shuffle driven by the benchmark seed. */
template <class T>
void
shuffle(std::vector<T> &items, csched::Rng &rng)
{
    for (int i = static_cast<int>(items.size()) - 1; i > 0; --i)
        std::swap(items[i], items[rng.range(i + 1)]);
}

/** "workload/machine/algorithm" of a job result. */
std::string resultKey(const csched::JobResult &result);

/**
 * Run @p grid (which names no hosts) in-process, untimed, and key every
 * result by resultKey().  Fails (returns false, fills @p why) if any
 * job fails.
 */
bool referenceResults(const csched::GridSpec &grid,
                      std::map<std::string, csched::JobResult> *out,
                      std::string *why);

/**
 * True when @p got is an ok result with the makespan and assignment
 * of @p expected; otherwise fills @p why.
 */
bool sameOutput(const csched::JobResult &expected,
                const csched::JobResult &got, std::string *why);

/** The 13 paper kernels, in registry order. */
std::vector<std::string> paperKernels();

int runInProcess(const Options &options, Report &report, Tracer &tracer);
int runServeMix(const Options &options, Report &report, Tracer &tracer);
int runGridDist(const Options &options, Report &report, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
