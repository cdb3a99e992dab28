/**
 * @file
 * Command-line driver: schedule one (workload, machine, algorithm) cell
 * and inspect the result.  The cell runs as a one-job grid through
 * runGrid -- the same path as csched_bench suite, so every execution
 * mode (in-process, --isolate, --hosts, --journal) runs it exactly
 * once -- and the views below render its JobResult.
 *
 *   csched_cli [options]
 *     --workload NAME     benchmark to schedule (default tomcatv;
 *                         "list" prints the registry), or an arrival
 *                         stream spec such as stream:poisson:n=12:
 *                         seed=1:mean-gap=500:workloads=fir+vvmul
 *                         (see online/arrival.hh)
 *     --machine SPEC      vliwN | rawN | rawRxC | single (default
 *                         vliw4); malformed specs are rejected
 *     --algorithm SPEC    convergent | uas | pcc | rawcc | single |
 *                         bug, optionally with a pass sequence as in
 *                         "convergent:INITTIME,PLACE,COMM" (default
 *                         convergent); an online policy (online-*,
 *                         see online/policy.hh) for a stream workload
 *     --sequence PASSES   custom convergent pass list (equivalent to
 *                         the --algorithm suffix form)
 *     --speedup           also compute speedup vs one cluster
 *     --trace             print the convergence trace
 *     --dot FILE          write the coloured dependence graph (DOT)
 *     --gantt             print the per-FU timeline
 *     --placements        print one line per instruction
 *     --pressure          print register-pressure stats
 *     --emit-trace FILE   write the stream workload's csched-stream-v1
 *                         JSONL trace (replay it with --workload
 *                         stream:trace:file=FILE)
 *
 * plus the execution flags shared with csched_bench suite (see
 * runner/driver.hh): --jobs, --deadline-ms, --retries, --isolate,
 * --mem-limit-mb, --journal, --resume, --hosts, --keep-going and
 * --json FILE (the csched-grid-report-v2 report, "-" = stdout).
 *
 * --gantt, --placements and --pressure read the Schedule that only an
 * in-process run keeps, so they are usage errors with --isolate,
 * --hosts and --resume; the other views need only the JobResult.  A
 * stream workload prints its online metrics instead of the views.
 *
 * Failures are structured: a bad spec is a usage error (exit 2), while
 * a run that fails -- checker rejection, deadline, injected fault --
 * prints a diagnostic and exits 1 unless --keep-going.  SIGINT/SIGTERM
 * stop the run gracefully and exit 128+signum; file outputs (--json,
 * --dot, --emit-trace) are atomic (tmp + fsync + rename).
 */

#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "eval/experiment.hh"
#include "ir/dot_export.hh"
#include "machine/machine_spec.hh"
#include "online/arrival.hh"
#include "runner/driver.hh"
#include "runner/grid_runner.hh"
#include "runner/shutdown.hh"
#include "sched/register_pressure.hh"
#include "sched/schedule_printer.hh"
#include "support/atomic_file.hh"
#include "support/str.hh"
#include "tool_version.hh"
#include "workloads/workloads.hh"

using namespace csched;

namespace {

[[noreturn]] void
usage(const char *argv0, const std::string &why = "")
{
    if (!why.empty())
        std::cerr << argv0 << ": " << why << "\n";
    std::cerr << "usage: " << argv0
              << " [--workload NAME|STREAM]"
              << " [--machine vliwN|rawN|rawRxC] [--algorithm SPEC]\n"
              << "  [--sequence PASSES] [--json FILE] [--jobs N]"
              << " [--gantt] [--placements]\n"
              << "  [--trace] [--dot FILE] [--pressure] [--speedup]"
              << " [--emit-trace FILE]\n"
              << "  [--deadline-ms N] [--retries N] [--isolate]"
              << " [--mem-limit-mb N]\n"
              << "  [--journal FILE] [--resume] [--hosts CSV]"
              << " [--keep-going] [--version]\n";
    std::exit(2);
}

/** Which views of the cell to print after the summary line. */
struct Views
{
    bool speedup = false;
    bool pressure = false;
    bool trace = false;
    bool gantt = false;
    bool placements = false;
    std::string dotFile;

    /** Views that read the Schedule only an in-process run keeps. */
    bool needSchedule() const { return gantt || placements || pressure; }
    bool any() const
    {
        return speedup || trace || needSchedule() || !dotFile.empty();
    }
};

/** Write @p stream's arrival trace to @p path; false on failure. */
bool
emitStreamTrace(const char *argv0, const std::string &stream,
                const std::string &path)
{
    const auto spec = parseStreamSpec(stream);
    const auto arrivals = generateArrivals(*spec);
    const Status written =
        arrivals.ok()
            ? writeFileAtomic(path, streamTraceText(*spec, *arrivals))
            : arrivals.status();
    if (!written.ok()) {
        std::cerr << argv0 << ": " << written.toString() << "\n";
        return false;
    }
    std::cout << "wrote " << path << "\n";
    return true;
}

void
printOnlineSummary(const JobResult &job)
{
    std::cout << job.workload << " on " << job.machine << " via "
              << job.algorithm << ": " << job.regions
              << " regions, weighted completion "
              << job.weightedCompletion << ", makespan " << job.makespan
              << ", max flow " << job.maxFlowTime << ", mean flow "
              << formatDouble(job.meanFlowTime, 1) << ", misses "
              << job.deadlineMisses << ", preemptions "
              << job.preemptions << "\n";
}

/**
 * The summary line and the requested views of a successful offline
 * cell.  Returns false when a file view could not be written.
 */
bool
printOfflineViews(const char *argv0, const JobResult &job,
                  const MachineModel &machine, const Views &views)
{
    std::cout << job.workload << " on " << machine.name() << " via "
              << job.algorithmName << ": " << job.instructions
              << " instructions, makespan " << job.makespan
              << " cycles (CPL " << job.criticalPathLength
              << "), scheduled in " << formatDouble(job.seconds * 1e3, 2)
              << " ms\n";

    if (views.speedup)
        std::cout << "speedup vs one cluster: "
                  << formatDouble(job.speedup, 2) << "x\n";

    // The job's own graph, rebuilt: graph construction is a pure
    // function of (workload, machine).
    std::optional<DependenceGraph> graph;
    if (views.needSchedule() || !views.dotFile.empty()) {
        auto built = buildJobGraph(job.workload, machine);
        if (!built.ok()) {
            std::cerr << argv0 << ": " << built.status().toString()
                      << "\n";
            return false;
        }
        graph = std::move(*built);
    }
    if (views.pressure) {
        const auto report = analyzePressure(*graph, *job.schedule);
        const int budget = machine.registersPerCluster();
        std::cout << "peak register pressure: " << report.peak()
                  << " (budget " << budget << "; clusters over budget: "
                  << report.clustersOverBudget(budget) << ")\n";
    }
    if (views.trace) {
        if (job.trace.empty())
            std::cout << "(no convergence trace: " << job.algorithmName
                      << " has no pass pipeline)\n";
        for (const auto &step : job.trace)
            std::cout << "  " << step.pass << ": "
                      << formatDouble(step.fractionChanged, 3)
                      << (step.temporalOnly ? " (temporal)" : "")
                      << "  [" << formatDouble(step.seconds * 1e3, 2)
                      << " ms]\n";
    }
    if (views.gantt) {
        std::cout << "\n";
        printGantt(std::cout, *graph, machine, *job.schedule);
    }
    if (views.placements) {
        std::cout << "\n";
        printPlacements(std::cout, *graph, *job.schedule);
    }
    if (!views.dotFile.empty()) {
        std::ostringstream out;
        exportDot(out, *graph, job.assignment);
        const Status written = writeFileAtomic(views.dotFile, out.str());
        if (!written.ok()) {
            std::cerr << argv0 << ": " << written.toString() << "\n";
            return false;
        }
        std::cout << "wrote " << views.dotFile << "\n";
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *argv0 = argv[0];
    const std::vector<std::string> args(argv + 1, argv + argc);
    std::string workload = "tomcatv";
    std::string machine_spec = "vliw4";
    std::string algorithm_arg = "convergent";
    std::string sequence;
    std::string trace_file;
    Views views;
    GridSpec grid;
    DriverFlags flags;

    for (size_t k = 0; k < args.size(); ++k) {
        std::string why;
        if (parseDriverFlag(args, &k, &grid, &flags, &why)) {
            if (!why.empty())
                usage(argv0, why);
            continue;
        }
        const std::string arg = args[k];
        auto next = [&]() -> std::string {
            if (k + 1 >= args.size())
                usage(argv0, arg + " needs a value");
            return args[++k];
        };
        if (arg == "--version") {
            return printToolVersion("csched_cli");
        } else if (arg == "--workload") {
            workload = next();
        } else if (arg == "--machine") {
            machine_spec = next();
        } else if (arg == "--algorithm") {
            algorithm_arg = next();
        } else if (arg == "--sequence") {
            sequence = next();
        } else if (arg == "--emit-trace") {
            trace_file = next();
        } else if (arg == "--dot") {
            views.dotFile = next();
        } else if (arg == "--gantt") {
            views.gantt = true;
        } else if (arg == "--placements") {
            views.placements = true;
        } else if (arg == "--trace") {
            views.trace = true;
        } else if (arg == "--pressure") {
            views.pressure = true;
        } else if (arg == "--speedup") {
            views.speedup = true;
        } else {
            usage(argv0, "unknown option '" + arg + "'");
        }
    }

    if (workload == "list") {
        for (const auto &spec : allWorkloads())
            std::cout << spec.name << "  -  " << spec.description
                      << "\n";
        return 0;
    }

    std::string error;
    const auto machine = parseMachineSpec(machine_spec, &error);
    if (machine == nullptr)
        usage(argv0, error);

    auto parsed = parseAlgorithmSpec(algorithm_arg, &error);
    if (!parsed.has_value())
        usage(argv0, error);
    AlgorithmSpec algorithm_spec = *parsed;
    if (!sequence.empty()) {
        if (!algorithm_spec.sequence.empty())
            usage(argv0, "--sequence conflicts with the --algorithm "
                         "pass suffix");
        algorithm_spec.sequence = sequence;
        parsed = parseAlgorithmSpec(algorithm_spec.text(), &error);
        if (!parsed.has_value())
            usage(argv0, error);
        algorithm_spec = *parsed;
    }

    const bool stream = isStreamWorkload(workload);
    if (!stream && tryFindWorkload(workload) == nullptr)
        usage(argv0, "unknown workload '" + workload +
                         "' (try --workload list)");
    if (stream && views.any())
        usage(argv0, "--speedup, --trace, --dot, --gantt, --placements "
                     "and --pressure need an offline workload");
    if (!stream && !trace_file.empty())
        usage(argv0, "--emit-trace needs a stream workload");
    if (views.needSchedule() &&
        (grid.isolate || !grid.hosts.empty() || grid.resume))
        usage(argv0, "--gantt, --placements and --pressure need the "
                     "in-process schedule, which --isolate, --hosts and "
                     "--resume do not keep");

    grid.workloads = {workload};
    grid.machines = {machine_spec};
    grid.algorithms = {algorithm_spec};
    grid.computeSpeedup = views.speedup;
    if (!validateGrid(grid, &error))
        usage(argv0, error);

    if (!trace_file.empty() &&
        !emitStreamTrace(argv0, workload, trace_file))
        return 1;

    installGridSignalHandlers();
    const GridReport report = runGrid(grid);
    const JobResult &job = report.results.front();
    if (job.ok() && stream)
        printOnlineSummary(job);
    else if (job.ok() && !printOfflineViews(argv0, job, *machine, views))
        return 1;
    return finishGridRun(argv0, report, flags, ReportOptions(), true);
}
