/**
 * @file
 * The grid-dist workload: runGrid over a fleet of two localhost
 * csched_workerd daemons (two workers each) with two client threads.
 *
 * The grid is the 13 paper kernels x {vliw4, raw4x4} x the four
 * algorithms, with no speedup baselines and so no client-side work:
 * every job crosses the dist protocol.  The seed orders each axis,
 * afresh for every grid, so that no single order's slowest-job tail
 * sets a run's figures.
 * Every job's result is checked against the in-process result for the
 * same key, computed before the clock starts.
 *
 * The traced run alternates untraced runGrid calls with a grid
 * composed from the dist layer's public functions -- RemoteWorkerPool
 * start, runJobRemote per job on a ThreadPool -- so the connect time
 * and the transport's re-dispatches can be seen.
 */
#include <algorithm>
#include <fstream>
#include <thread>

#include <unistd.h>

#include "common.hh"
#include "dist/remote_pool.hh"
#include "runner/thread_pool.hh"

namespace perfbench {

using namespace csched;

namespace {

// Two jobs at a time.  With four at once, CPU time per job rose 18%
// between two sets of runs as the host got busier, while serve-mix, at
// two at once, rose 10% and the single-threaded workloads 3%.
constexpr int kDaemons = 2;
constexpr int kWorkersPerDaemon = 2;
constexpr int kClientThreads = 2;

struct Fleet
{
    std::vector<pid_t> pids;
    std::vector<std::string> hosts;

    /**
     * The median peak RSS of the workers.  Now and then one worker's
     * heap grows a fifth past the others', so their largest peak is
     * not a steady figure.
     */
    double workerPeakRssMb() const
    {
        std::vector<double> peaks;
        for (const pid_t pid : pids)
            for (const pid_t worker : descendants(pid))
                peaks.push_back(processStatusMb(worker, "VmHWM"));
        if (peaks.empty())
            return 0.0;
        std::sort(peaks.begin(), peaks.end());
        return peaks[(peaks.size() - 1) / 2];
    }

    /** CPU seconds used by the daemons and their workers so far. */
    double cpuSeconds() const
    {
        double seconds = 0.0;
        for (const pid_t pid : pids)
            seconds += treeCpuSeconds(pid);
        return seconds;
    }

    void stop()
    {
        for (const pid_t pid : pids)
            stopProcess(pid);
        pids.clear();
        hosts.clear();
    }
};

/** Start the daemons and wait until each has published its port. */
bool
startFleet(const Options &options, int rep, Fleet *fleet, std::string *why)
{
    std::vector<std::string> port_files;
    for (int d = 0; d < kDaemons; ++d) {
        const std::string port_file =
            options.runDir + "/workerd-" + std::to_string(::getpid()) +
            "-" + std::to_string(rep) + "-" + std::to_string(d) + ".port";
        ::unlink(port_file.c_str());
        const pid_t pid = spawnProcess(
            {options.binDir + "/csched_workerd", "--port", "0",
             "--port-file", port_file, "--workers",
             std::to_string(kWorkersPerDaemon)});
        if (pid < 0) {
            *why = "cannot start csched_workerd";
            return false;
        }
        fleet->pids.push_back(pid);
        port_files.push_back(port_file);
    }
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    for (const auto &port_file : port_files) {
        int port = 0;
        while (port == 0 && Clock::now() < deadline) {
            std::ifstream(port_file) >> port;
            if (port == 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ::unlink(port_file.c_str());
        if (port == 0) {
            *why = "csched_workerd did not publish its port";
            return false;
        }
        fleet->hosts.push_back("127.0.0.1:" + std::to_string(port));
    }
    return true;
}

/** Check every job of one grid pass; record them as operations. */
void
recordGrid(const std::vector<JobResult> &results, int batch, bool traced,
           const std::map<std::string, JobResult> &reference,
           Report &report)
{
    for (const auto &result : results) {
        Op op;
        op.unit = resultKey(result);
        op.seconds = result.seconds;
        op.traced = traced;
        op.batch = batch;
        op.makespan = result.makespan;
        op.values["attempts"] = result.attempts;
        std::string why;
        const auto expected = reference.find(op.unit);
        if (expected == reference.end())
            why = op.unit + ": no in-process reference";
        else
            sameOutput(expected->second, result, &why);
        op.ok = why.empty();
        report.count(op.ok, why);
        report.ops.push_back(std::move(op));
    }
}

/** One grid pass built from the dist layer's calls, with spans. */
std::vector<JobResult>
tracedGrid(const GridSpec &grid, Tracer &tracer, Timed &timed)
{
    const std::vector<JobSpec> jobs = expandGrid(grid);
    std::vector<JobResult> results(jobs.size());
    Span root(tracer, "runner.grid");
    DistOptions dist;
    dist.hosts = grid.hosts;
    RemoteWorkerPool fleet(dist);
    {
        Span span(tracer, "dist.connect");
        const Status started = fleet.start();
        if (!started.ok())
            return {};
    }
    {
        ThreadPool pool(grid.jobs);
        for (size_t k = 0; k < jobs.size(); ++k)
            pool.submit([&, k] {
                OpScope scope(timed.traceOp, root.id());
                Span span(tracer, "dist.job");
                results[k] = runJobRemote(jobs[k], JobPolicy{}, fleet);
            });
        pool.wait();
    }
    const DistStats stats = fleet.stats();
    timed.values["dispatches"] = static_cast<double>(stats.dispatches);
    timed.values["jobs"] = static_cast<double>(jobs.size());
    fleet.shutdown();
    return results;
}

} // namespace

int
runGridDist(const Options &options, Report &report, Tracer &tracer)
{
    GridSpec grid;
    grid.workloads = paperKernels();
    grid.machines = {"vliw4", "raw4x4"};
    for (const char *name : {"convergent", "uas", "pcc", "rawcc"})
        grid.algorithms.push_back(*parseAlgorithmSpec(name));
    grid.jobs = kClientThreads;
    grid.computeSpeedup = false;

    std::map<std::string, JobResult> reference;
    std::string why;
    if (!referenceResults(grid, &reference, &why)) {
        report.count(false, why);
        return 1;
    }

    // Fleet start until the first good reply (a one-job grid),
    // repeated; the last fleet runs the measured grids.
    Fleet fleet;
    for (int rep = 0; moreSetups(report); ++rep) {
        fleet.stop();
        const auto begin = Clock::now();
        bool ok = startFleet(options, rep, &fleet, &why);
        if (ok) {
            GridSpec probe;
            probe.workloads = {"fir"};
            probe.machines = {"vliw2"};
            probe.algorithms = {*parseAlgorithmSpec("pcc")};
            probe.computeSpeedup = false;
            probe.hosts = fleet.hosts;
            ok = runGrid(probe).allOk();
            if (!ok)
                why = "the fleet failed its first job";
        }
        Timed timed;
        timed.seconds = secondsBetween(begin, Clock::now());
        if (!ok) {
            fleet.stop();
            report.count(false, "set-up: " + why);
            return 1;
        }
        report.setups.push_back(timed);
    }
    grid.hosts = fleet.hosts;

    Rng rng(options.seed);
    const HostCpu host_begin = hostCpu();
    const auto start = Clock::now();
    int batch = 0;
    do {
        shuffle(grid.workloads, rng);
        shuffle(grid.machines, rng);
        shuffle(grid.algorithms, rng);
        const bool traced = options.trace && batch % 2 == 1;
        Timed timed;
        timed.traced = traced;
        timed.traceOp = traced ? tracer.newOp() : 0;
        OpScope scope(timed.traceOp);
        // CPU time of everything that runs the grid: the fleet and
        // this process (read last, so the fleet's probe is not in it).
        const double fleet_begin = fleet.cpuSeconds();
        const double self_begin = selfCpuSeconds();
        const auto begin = Clock::now();
        const std::vector<JobResult> results =
            traced ? tracedGrid(grid, tracer, timed) : runGrid(grid).results;
        timed.seconds = secondsBetween(begin, Clock::now());
        timed.values["cpu_s"] = selfCpuSeconds() - self_begin +
                                fleet.cpuSeconds() - fleet_begin;
        timed.values["requests"] = static_cast<double>(results.size());
        if (results.empty())
            report.count(false, "the fleet did not connect");
        recordGrid(results, batch, traced, reference, report);
        report.batches.push_back(timed);
        ++batch;
    } while (secondsBetween(start, Clock::now()) < options.seconds ||
             (options.trace && batch < 2));
    report.windowSeconds = secondsBetween(start, Clock::now());
    report.values["steal_ratio"] = stealRatio(host_begin, hostCpu());
    report.values["daemon_peak_rss_mb"] = fleet.workerPeakRssMb();
    fleet.stop();
    return report.failed == 0 ? 0 : 1;
}

} // namespace perfbench
