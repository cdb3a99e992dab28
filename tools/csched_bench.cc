/**
 * @file
 * The benchmark driver, a small subcommand-style CLI:
 *
 *   csched_bench suite [options]   grid runner (table + JSON report)
 *   csched_bench perf  [options]   perf trajectory: BENCH_*.json
 *   csched_bench list              workloads, algorithms, passes
 *
 * `suite` is the batch experiment driver: run a (workload x machine x
 * algorithm) grid on a thread pool and report a table and/or a
 * csched-grid-report-v2 JSON document.  E.g. Figure 8 is
 *
 *   csched_bench suite --suite vliw --machines vliw4 \
 *                      --algorithms pcc,uas,convergent
 *
 *   csched_bench suite [options]
 *     --workloads A,B,...   explicit workload list
 *     --suite raw|vliw|all  named workload suite (default: all)
 *     --machines S,S,...    machine specs (default vliw4)
 *     --algorithms A,A,...  algorithm specs (default convergent);
 *                           "convergent:PASS,PASS" selects a custom
 *                           pass sequence
 *     --jobs N              worker threads; 0 = hardware concurrency
 *                           (default 0).  Results are bit-identical
 *                           for every N.
 *     --json FILE           write the structured report ("-" = stdout)
 *     --no-timings          omit wall-clock fields from the JSON so
 *                           reports are byte-identical across runs
 *     --no-assignments      omit per-instruction assignment vectors
 *     --no-speedup          skip the one-cluster normalisation runs
 *     --deadline-ms N       per-attempt deadline per job; 0 = none
 *     --retries N           retry failed/timed-out jobs up to N times
 *     --isolate             run each job in a forked worker process:
 *                           a segfault, hang, or memory runaway is
 *                           contained as that cell's outcome (with
 *                           the fatal signal/exit status recorded)
 *                           instead of killing the run.  Reported
 *                           numbers are byte-identical either way.
 *     --mem-limit-mb N      RLIMIT_AS per isolated worker; 0 = none
 *     --journal FILE        append every terminal job outcome to FILE
 *                           as it completes (crash-safe JSONL)
 *     --resume              skip jobs already recorded in --journal
 *                           and replay their outcomes; the final
 *                           report is byte-identical to an
 *                           uninterrupted run
 *     --hosts CSV           execute jobs on a fleet of csched_workerd
 *                           daemons ("host:port" each) instead of
 *                           in-process; partition-tolerant (leases
 *                           reassign on host loss) and byte-identical
 *                           to an in-process run at any host count
 *     --keep-going          exit 0 even when jobs failed (the report
 *                           still marks every failed cell)
 *     --quiet               suppress the human-readable table
 *
 * The execution flags (--jobs through --keep-going, and --json) are
 * parsed by the parser csched_cli shares (runner/driver.hh).  Stream
 * specs on --workloads with online policies on --algorithms make an
 * online sweep (online/online_grid.hh).
 *
 * A failing job never aborts the grid: its cell is marked in the table
 * and the JSON, healthy cells are salvaged, a summary goes to stderr,
 * and the exit status is 1 unless --keep-going.  SIGINT/SIGTERM drain
 * in-flight jobs, journal them, write a partial report marked
 * "interrupted", and exit 128+signum; a --resume re-run completes the
 * grid.  File outputs are atomic (tmp + fsync + rename).  (There is
 * also a hidden --inject RULES option, the deterministic
 * fault-injection harness used by the robustness tests; see
 * fault_injection.hh for the rule grammar.)
 *
 * `perf` measures the convergent-scheduler hot path and emits the
 * csched-bench-report-v1 documents of the tracked perf trajectory
 * (see runner/bench_report.hh for the schema):
 *
 *   csched_bench perf [options]
 *     --out-dir DIR         where BENCH_pass_kernels.json,
 *                           BENCH_end_to_end.json, BENCH_online.json,
 *                           BENCH_mesh.json, and BENCH_dist.json are
 *                           written (default ".")
 *     --repeats N           timed samples per cell, median-of-N
 *                           (default 5), after one untimed warm-up
 *     --quick               repeats 3 and the small cell set; the
 *                           ci.sh perf gate uses this
 *     --cells W/M[/ALG],... override the end-to-end cell list; the
 *                           pass-kernel cells are read off the traces
 *                           of its convergent cells' timed samples
 *     --online-cells S/M/P,..
 *                           override the online cell list (stream
 *                           spec / machine / online policy)
 *     --check               compare the end-to-end, online, mesh,
 *                           and dist medians against the baseline and
 *                           exit 1 on >threshold slowdown; prints the
 *                           per-kernel delta table as the diagnostic
 *                           on failure
 *     --baseline-dir DIR    where --check finds the baseline
 *                           (default: the repository checkout, ".")
 *     --threshold PCT       --check slowdown gate, a non-negative
 *                           number (default 15)
 *     --annotate-pre-rewrite FILE
 *                           attach the medians of FILE (an end-to-end
 *                           bench report measured on the pre-rewrite
 *                           engine) as preRewriteSeconds
 *
 * The mesh cells time the degraded-machine hot paths on a 32x32 Raw
 * mesh, fault-free and 10% degraded: machine construction (fault-map
 * materialisation plus detour-table BFS) and a full schedule+check
 * run with the fault-aware router and checker.  The dist cells fork
 * two localhost csched_workerd daemons and time a small fixed grid
 * through them against the same grid under --isolate, so the
 * remote-dispatch overhead is a gated number, not a guess.
 */

#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "convergent/pass_registry.hh"
#include "dist/workerd.hh"
#include "eval/experiment.hh"
#include "eval/online_metrics.hh"
#include "machine/machine_spec.hh"
#include "online/arrival.hh"
#include "online/online_scheduler.hh"
#include "online/policy.hh"
#include "runner/bench_report.hh"
#include "runner/driver.hh"
#include "runner/grid_runner.hh"
#include "runner/json_report.hh"
#include "runner/shutdown.hh"
#include "support/atomic_file.hh"
#include "support/stats.hh"
#include "support/str.hh"
#include "support/table.hh"
#include "tool_version.hh"
#include "workloads/workloads.hh"

using namespace csched;

namespace {

[[noreturn]] void
usage(const char *argv0, const std::string &why = "")
{
    if (!why.empty())
        std::cerr << argv0 << ": " << why << "\n";
    std::cerr
        << "usage: " << argv0 << " suite|perf|list [options]\n"
        << "  suite [--workloads A,B|--suite raw|vliw|all]"
        << " [--machines S,S]\n"
        << "    [--algorithms A,A] [--jobs N] [--json FILE]"
        << " [--no-timings]\n"
        << "    [--no-assignments] [--no-speedup] [--deadline-ms N]"
        << " [--retries N]\n"
        << "    [--isolate] [--mem-limit-mb N] [--journal FILE]"
        << " [--resume]\n"
        << "    [--hosts CSV] [--keep-going] [--quiet]\n"
        << "  perf [--out-dir DIR] [--repeats N] [--quick]"
        << " [--cells W/M,..]\n"
        << "    [--online-cells S/M/P,..] [--check]\n"
        << "    [--baseline-dir DIR] [--threshold PCT]"
        << " [--annotate-pre-rewrite FILE]\n"
        << "  list\n";
    std::exit(2);
}

std::vector<std::string>
suiteWorkloads(const std::string &suite)
{
    if (suite == "raw")
        return rawSuiteNames();
    if (suite == "vliw")
        return vliwSuiteNames();
    if (suite == "all") {
        std::vector<std::string> names;
        for (const auto &spec : allWorkloads())
            names.push_back(spec.name);
        return names;
    }
    return {};
}

// ---- suite ---------------------------------------------------------

int
runSuite(const char *argv0, const std::vector<std::string> &args)
{
    GridSpec grid;
    grid.machines = {"vliw4"};
    grid.jobs = 0;
    std::string suite = "all";
    std::string workloads_arg;
    std::string algorithms_arg = "convergent";
    DriverFlags flags;
    ReportOptions report_options;
    bool quiet = false;

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
        if (arg == "--workloads") {
            workloads_arg = next();
        } else if (arg == "--suite") {
            suite = next();
        } else if (arg == "--machines" || arg == "--machine") {
            // splitMachineList, not a bare split: faults= suffixes
            // carry commas of their own.
            grid.machines = splitMachineList(next());
        } else if (arg == "--algorithms" || arg == "--algorithm") {
            algorithms_arg = next();
        } else if (arg == "--no-timings") {
            report_options.timings = false;
        } else if (arg == "--no-assignments") {
            report_options.assignments = false;
        } else if (arg == "--no-speedup") {
            grid.computeSpeedup = false;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            usage(argv0, "unknown option '" + arg + "'");
        }
    }

    grid.workloads = workloads_arg.empty()
                         ? suiteWorkloads(suite)
                         : split(workloads_arg, ',');
    if (grid.workloads.empty())
        usage(argv0, "unknown suite '" + suite +
                         "' (expected raw|vliw|all)");

    // Algorithm specs may contain colons+commas ("convergent:A,B"),
    // so split on commas only outside a sequence: a part that names a
    // known algorithm starts a new spec, otherwise it continues the
    // previous spec's pass list.
    for (const auto &part : split(algorithms_arg, ',')) {
        std::string error;
        const auto parsed = parseAlgorithmSpec(part, &error);
        if (parsed.has_value()) {
            grid.algorithms.push_back(*parsed);
        } else if (!grid.algorithms.empty() &&
                   !grid.algorithms.back().sequence.empty()) {
            grid.algorithms.back().sequence += "," + trim(part);
        } else {
            usage(argv0, error);
        }
    }
    // Re-validate the stitched-together sequences.
    for (auto &spec : grid.algorithms) {
        std::string error;
        const auto parsed = parseAlgorithmSpec(spec.text(), &error);
        if (!parsed.has_value())
            usage(argv0, error);
        spec = *parsed;
    }

    std::string error;
    if (!validateGrid(grid, &error))
        usage(argv0, error);

    installGridSignalHandlers();
    const GridReport report = runGrid(grid);

    if (!quiet) {
        TablePrinter table({"workload", "machine", "algorithm",
                            "instrs", "makespan", "speedup", "ms"});
        for (const auto &job : report.results) {
            if (!job.ok()) {
                const std::string mark = jobOutcomeName(job.outcome);
                table.addRow({job.workload, job.machine, job.algorithm,
                              mark, mark, mark, mark});
                continue;
            }
            table.addRow(
                {job.workload, job.machine, job.algorithm,
                 std::to_string(job.instructions),
                 std::to_string(job.makespan),
                 grid.computeSpeedup ? formatDouble(job.speedup, 2)
                                     : "-",
                 formatDouble(job.seconds * 1e3, 2)});
        }
        table.print(std::cout);
        std::cout << "\n" << report.results.size() << " jobs on "
                  << report.threads << " thread"
                  << (report.threads == 1 ? "" : "s") << " in "
                  << formatDouble(report.wallSeconds, 2) << " s\n";
    }

    return finishGridRun(argv0, report, flags, report_options, !quiet);
}

// ---- perf ----------------------------------------------------------

/** One perf cell: a workload on a machine under an algorithm. */
struct PerfCell
{
    std::string workload;
    std::string machine;
    std::string algorithm = "convergent";
};

std::vector<PerfCell>
parsePerfCells(const char *argv0, const std::string &text)
{
    std::vector<PerfCell> cells;
    for (const auto &part : split(text, ',')) {
        const auto fields = split(part, '/');
        if (fields.size() != 2 && fields.size() != 3)
            usage(argv0, "cell '" + part +
                             "' is not workload/machine[/algorithm]");
        PerfCell cell;
        cell.workload = fields[0];
        cell.machine = fields[1];
        if (fields.size() == 3)
            cell.algorithm = fields[2];
        cells.push_back(cell);
    }
    return cells;
}

/** Read and parse the bench report at @p path; diagnosed on failure. */
std::optional<BenchReport>
loadBenchReport(const char *argv0, const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << argv0 << ": cannot read " << path << "\n";
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    auto report = parseBenchReport(text.str(), &error);
    if (!report.has_value())
        std::cerr << argv0 << ": " << path << ": " << error << "\n";
    return report;
}

BenchMeta
collectMeta(int repeats)
{
    BenchMeta meta;
#ifdef CSCHED_GIT_COMMIT
    meta.commit = CSCHED_GIT_COMMIT;
#else
    meta.commit = "unknown";
#endif
#ifdef CSCHED_BUILD_TYPE
    meta.buildType = CSCHED_BUILD_TYPE;
#else
    meta.buildType = "unknown";
#endif
#ifdef CSCHED_CXX_FLAGS
    meta.flags = CSCHED_CXX_FLAGS;
#else
    meta.flags = "";
#endif
    meta.compiler = __VERSION__;
    struct utsname names;
    if (uname(&names) == 0)
        meta.host = std::string(names.sysname) + " " + names.release +
                    " " + names.machine;
    else
        meta.host = "unknown";
    meta.repeats = repeats;
    return meta;
}

/** One forked localhost csched_workerd for the dist perf cells. */
struct WorkerdChild
{
    pid_t pid = -1;
    uint16_t port = 0;
};

/**
 * Fork a csched_workerd serving on an ephemeral loopback port and
 * report the port back over a pipe.  The child dies with the bench
 * process (PDEATHSIG) or on the explicit SIGTERM of reapWorkerd().
 */
std::optional<WorkerdChild>
spawnPerfWorkerd(int workers)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return std::nullopt;
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return std::nullopt;
    }
    if (pid == 0) {
        ::close(fds[0]);
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        installServeSignalHandlers();
        WorkerdOptions options;
        options.workers = workers;
        WorkerdServer server(std::move(options));
        if (!server.start().ok())
            ::_exit(1);
        const std::string line = std::to_string(server.port());
        (void)!::write(fds[1], line.data(), line.size());
        ::close(fds[1]);
        ::_exit(server.run());
    }
    ::close(fds[1]);
    char buffer[16] = {0};
    const ssize_t got = ::read(fds[0], buffer, sizeof(buffer) - 1);
    ::close(fds[0]);
    if (got <= 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        return std::nullopt;
    }
    WorkerdChild child;
    child.pid = pid;
    child.port = static_cast<uint16_t>(std::atoi(buffer));
    return child;
}

void
reapWorkerd(const std::optional<WorkerdChild> &child)
{
    if (!child.has_value())
        return;
    ::kill(child->pid, SIGTERM);
    ::waitpid(child->pid, nullptr, 0);
}

/**
 * Per-pass kernel names for a trace, disambiguating repeated passes
 * by occurrence ("PATHPROP", "PATHPROP.2", "PATHPROP.3").
 */
std::vector<std::string>
kernelNames(const std::vector<PassStep> &trace)
{
    std::map<std::string, int> seen;
    std::vector<std::string> names;
    for (const auto &step : trace) {
        const int occurrence = ++seen[step.pass];
        names.push_back(occurrence == 1
                            ? step.pass
                            : step.pass + "." +
                                  std::to_string(occurrence));
    }
    return names;
}

/** A cell keyed by workload, machine and kernel or algorithm. */
BenchCell
benchCell(const std::string &workload, const std::string &machine,
          const std::string &kernel, const std::string &algorithm = "")
{
    BenchCell cell;
    cell.workload = workload;
    cell.machine = machine;
    cell.kernel = kernel;
    cell.algorithm = algorithm;
    return cell;
}

/** What one call returned and the wall seconds it took. */
template <typename T>
struct Timed
{
    T value;
    double seconds;
};

template <typename Run>
auto
timed(Run &&run) -> Timed<decltype(run())>
{
    const auto begin = std::chrono::steady_clock::now();
    auto value = run();
    const auto end = std::chrono::steady_clock::now();
    return {std::move(value),
            std::chrono::duration<double>(end - begin).count()};
}

/** Set @p cell's median, best-of-N and reps from its samples. */
void
setSamples(BenchCell *cell, const std::vector<double> &seconds)
{
    cell->medianSeconds = median(seconds);
    cell->minSeconds = *std::min_element(seconds.begin(), seconds.end());
    cell->reps = static_cast<int>(seconds.size());
}

/**
 * The one measurement step of every perf cell: one untimed warm-up
 * call of @p sample, then @p repeats timed calls.  @p sample runs the
 * cell once and returns the seconds it took, or the error that stopped
 * it (diagnosed here; returns false).
 */
bool
measureCell(const char *argv0, int repeats, BenchCell *cell,
            const std::function<StatusOr<double>()> &sample)
{
    std::vector<double> seconds;
    for (int rep = 0; rep <= repeats; ++rep) {
        const StatusOr<double> took = sample();
        if (!took.ok()) {
            std::cerr << argv0 << ": perf cell " << cell->key() << ": "
                      << took.status().toString() << "\n";
            return false;
        }
        if (rep > 0)  // rep 0 is the warm-up
            seconds.push_back(*took);
    }
    setSamples(cell, seconds);
    std::cerr << "perf: " << cell->key() << " median "
              << formatDouble(cell->medianSeconds * 1e3, 2) << " ms over "
              << repeats << " reps\n";
    return true;
}

/** The five documents of a perf run, in the order they are written. */
enum PerfKind { kPassKernels, kEndToEnd, kOnline, kMesh, kDist };

struct PerfDocument
{
    const char *file;
    /** --check compares it against its baseline; the pass kernels are
     *  only the diagnostic of a failed gate. */
    bool gated;
    BenchReport report;
};

int
runPerf(const char *argv0, const std::vector<std::string> &args)
{
    std::string out_dir = ".";
    std::string baseline_dir = ".";
    std::string annotate_file;
    int repeats = 5;
    bool quick = false;
    bool check = false;
    double threshold = 15.0;
    std::string cells_arg;
    std::string online_cells_arg;

    for (size_t k = 0; k < args.size(); ++k) {
        const std::string arg = args[k];
        auto next = [&]() -> std::string {
            if (k + 1 >= args.size())
                usage(argv0, arg + " needs a value");
            return args[++k];
        };
        if (arg == "--out-dir") {
            out_dir = next();
        } else if (arg == "--baseline-dir") {
            baseline_dir = next();
        } else if (arg == "--repeats") {
            const auto parsed = parseNonNegativeIntFlag(next());
            if (!parsed.has_value() || *parsed < 1)
                usage(argv0, "--repeats must be >= 1");
            repeats = *parsed;
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "--threshold") {
            const auto parsed = parseFiniteDoubleFlag(next());
            if (!parsed.has_value() || *parsed < 0.0)
                usage(argv0, "--threshold must be a non-negative number");
            threshold = *parsed;
        } else if (arg == "--cells") {
            cells_arg = next();
        } else if (arg == "--online-cells") {
            online_cells_arg = next();
        } else if (arg == "--annotate-pre-rewrite") {
            annotate_file = next();
        } else {
            usage(argv0, "unknown perf option '" + arg + "'");
        }
    }
    if (quick)
        repeats = std::min(repeats, 3);

    // The default cell sets: the acceptance cell (synth-wide-10k on
    // the four-cluster VLIW) plus the narrow window-stress shape and
    // three paper kernels for continuity with the figures.
    std::vector<PerfCell> e2e_cells = {
        {"synth-wide-10k", "vliw4", "convergent"},
        {"synth-narrow-2k", "vliw4", "convergent"},
        {"synth-narrow-2k", "raw4", "convergent"},
        {"mxm", "vliw4", "convergent"},
        {"cholesky", "vliw4", "convergent"},
        {"sha", "raw4", "convergent"},
    };
    // Online cells measure the whole commit loop -- admission,
    // per-region planning, and (for plan-ahead) preempt-and-recommit
    // -- over a deterministic arrival stream.  Stream specs are '+'
    // and ':' separated, so they survive the ','/'/' cell grammar.
    const std::string perf_stream =
        "stream:bursty:n=12:seed=11:gap=200:burst=4:"
        "workloads=fir+vvmul+jacobi";
    std::vector<PerfCell> online_cells = {
        {perf_stream, "vliw4", "online-convergent"},
        {perf_stream, "vliw4", "online-sp"},
        {perf_stream, "vliw4", "online-pcc"},
    };
    if (quick) {
        e2e_cells = {{"synth-wide-10k", "vliw4", "convergent"},
                     {"synth-narrow-2k", "raw4", "convergent"}};
        online_cells = {{perf_stream, "vliw4", "online-convergent"}};
    }
    if (!cells_arg.empty())
        e2e_cells = parsePerfCells(argv0, cells_arg);
    if (!online_cells_arg.empty())
        online_cells = parsePerfCells(argv0, online_cells_arg);

    const BenchMeta meta = collectMeta(repeats);
    std::vector<PerfDocument> docs = {
        {"BENCH_pass_kernels.json", false, {"pass-kernels", meta, {}}},
        {"BENCH_end_to_end.json", true, {"end-to-end", meta, {}}},
        {"BENCH_online.json", true, {"online", meta, {}}},
        {"BENCH_mesh.json", true, {"mesh", meta, {}}},
        {"BENCH_dist.json", true, {"dist", meta, {}}},
    };

    // End-to-end cells: a full schedule() call.  The traces of its
    // timed samples give the pass-kernel cells, one per position in
    // the pipeline; only convergent runs leave a trace.
    for (const auto &spec : e2e_cells) {
        std::string error;
        const auto machine = parseMachineSpec(spec.machine, &error);
        if (machine == nullptr)
            usage(argv0, error);
        const auto algorithm_spec =
            parseAlgorithmSpec(spec.algorithm, &error);
        if (!algorithm_spec.has_value())
            usage(argv0, error);
        const WorkloadSpec *workload = tryFindWorkload(spec.workload);
        if (workload == nullptr)
            usage(argv0, "unknown workload '" + spec.workload + "'");
        const auto algorithm = makeAlgorithm(*algorithm_spec, *machine);
        const int clusters = machine->numClusters();
        const DependenceGraph graph = workload->build(clusters, clusters);

        BenchCell cell =
            benchCell(spec.workload, spec.machine, "", spec.algorithm);
        cell.instructions = graph.numInstructions();
        std::vector<std::vector<PassStep>> traces;
        auto schedule_once = [&]() -> StatusOr<double> {
            auto run = timed([&] { return algorithm->run(graph); });
            cell.makespan = run.value.schedule.makespan();
            traces.push_back(std::move(run.value.trace));
            return run.seconds;
        };
        if (!measureCell(argv0, repeats, &cell, schedule_once))
            return 1;
        docs[kEndToEnd].report.cells.push_back(cell);
        const auto names = kernelNames(traces.back());
        for (size_t k = 0; k < names.size(); ++k) {
            BenchCell kernel = benchCell(spec.workload, spec.machine,
                                         names[k], spec.algorithm);
            std::vector<double> seconds;
            for (size_t rep = 1; rep < traces.size(); ++rep)
                seconds.push_back(traces[rep][k].seconds);  // [0]: warm-up
            setSamples(&kernel, seconds);
            docs[kPassKernels].report.cells.push_back(kernel);
        }
    }

    // Online cells: one full runOnline() commit loop over a
    // pre-generated arrival stream (generation is untimed -- the
    // stream is the fixture, the loop is the engine).
    for (const auto &spec : online_cells) {
        std::string error;
        const auto machine = parseMachineSpec(spec.machine, &error);
        if (machine == nullptr)
            usage(argv0, error);
        const auto stream = parseStreamSpec(spec.workload, &error);
        if (!stream.has_value())
            usage(argv0, error);
        const auto policy = parseOnlinePolicy(spec.algorithm, &error);
        if (!policy.has_value())
            usage(argv0, error);
        const auto arrivals = generateArrivals(*stream);
        if (!arrivals.ok())
            usage(argv0, arrivals.status().toString());

        BenchCell cell =
            benchCell(spec.workload, spec.machine, "", spec.algorithm);
        auto commit_once = [&]() -> StatusOr<double> {
            auto run = timed(
                [&] { return runOnline(*machine, *policy, *arrivals); });
            if (!run.value.ok())
                return run.value.status();
            const auto metrics = computeOnlineMetrics(run.value->commits);
            cell.instructions = metrics.instructions;
            cell.makespan = metrics.makespan;
            return run.seconds;
        };
        if (!measureCell(argv0, repeats, &cell, commit_once))
            return 1;
        docs[kOnline].report.cells.push_back(cell);
    }

    // Mesh cells: the degraded-machine hot paths on a 32x32 mesh,
    // fault-free and 10% degraded.  "construct" is one
    // tryParseMachineSpec call (fault-map materialisation plus the
    // per-destination detour-table BFS on 1024 tiles), "schedule" is
    // one tryRunAndCheck call of UAS on mxm (the fault-aware router
    // inside scheduling and the dead-resource checker rules).  The
    // cell set is fixed so quick and full runs join against the same
    // baseline keys.
    for (const std::string machine_spec :
         {"raw32x32", "raw32x32/faults=seed:1,tiles:10%,links:3%"}) {
        std::unique_ptr<MachineModel> machine;
        auto construct_once = [&]() -> StatusOr<double> {
            auto built =
                timed([&] { return tryParseMachineSpec(machine_spec); });
            if (!built.value.ok())
                return built.value.status();
            machine = std::move(*built.value);
            return built.seconds;
        };
        BenchCell construct = benchCell("-", machine_spec, "construct");
        if (!measureCell(argv0, repeats, &construct, construct_once))
            return 1;
        docs[kMesh].report.cells.push_back(construct);

        const auto algorithm =
            makeAlgorithm(parseAlgorithmSpec("uas").value(), *machine);
        // Fixed bank count: mxm's size scales with banks, and the cell
        // measures routing on 1024 tiles, not a 65k-instr graph.
        // Preplacement still spreads over the whole mesh.
        DependenceGraph graph =
            tryFindWorkload("mxm")->build(16, machine->numClusters());
        remapPreplacedForMachine(graph, *machine);
        BenchCell schedule =
            benchCell("mxm", machine_spec, "schedule", "uas");
        schedule.instructions = graph.numInstructions();
        auto schedule_once = [&]() -> StatusOr<double> {
            auto run = timed(
                [&] { return tryRunAndCheck(*algorithm, graph, *machine); });
            if (!run.value.ok())
                return run.value.status();
            schedule.makespan = run.value->makespan;
            return run.seconds;
        };
        if (!measureCell(argv0, repeats, &schedule, schedule_once))
            return 1;
        docs[kMesh].report.cells.push_back(schedule);
    }

    // Dist cells: the distributed execution path end to end.  One
    // fixed small grid (the same for quick and full runs, so the key
    // join always finds both cells) runs through runGrid() under
    // --isolate, the in-process containment baseline, and over a
    // localhost fleet of two forked workerd daemons, so the gate
    // tracks the dispatch/lease/heartbeat overhead the RemoteWorkerPool
    // adds on top of the same forked-worker execution.  The mode lands
    // in the cell's kernel field so the two join as distinct keys.
    GridSpec dist_grid;
    dist_grid.workloads = {"fir", "vvmul", "jacobi"};
    dist_grid.machines = {"vliw4"};
    dist_grid.algorithms = {parseAlgorithmSpec("convergent").value()};
    dist_grid.jobs = 4;
    dist_grid.computeSpeedup = true;
    const auto workerd_a = spawnPerfWorkerd(2);
    const auto workerd_b = spawnPerfWorkerd(2);
    bool dist_ok = workerd_a.has_value() && workerd_b.has_value();
    if (!dist_ok)
        std::cerr << argv0 << ": dist cells: cannot fork workerd\n";
    for (const std::string mode : {"isolate", "dist-2x2"}) {
        if (!dist_ok)
            break;
        GridSpec grid = dist_grid;
        if (mode == "isolate")
            grid.isolate = true;
        else
            grid.hosts = {
                "127.0.0.1:" + std::to_string(workerd_a->port),
                "127.0.0.1:" + std::to_string(workerd_b->port)};
        BenchCell cell =
            benchCell(join(dist_grid.workloads, "+"), "vliw4", mode);
        auto grid_once = [&]() -> StatusOr<double> {
            const GridReport report = runGrid(grid);
            if (!report.allOk())
                return Status::internal("grid run failed");
            return report.wallSeconds;
        };
        dist_ok = measureCell(argv0, repeats, &cell, grid_once);
        if (dist_ok)
            docs[kDist].report.cells.push_back(cell);
    }
    reapWorkerd(workerd_a);
    reapWorkerd(workerd_b);
    if (!dist_ok)
        return 1;

    // Optionally attach pre-rewrite medians so the trajectory's
    // starting point travels with the report.
    if (!annotate_file.empty()) {
        const auto pre = loadBenchReport(argv0, annotate_file);
        if (!pre.has_value())
            return 1;
        std::map<std::string, double> pre_by_key;
        for (const auto &cell : pre->cells)
            pre_by_key[cell.key()] = cell.medianSeconds;
        for (auto &cell : docs[kEndToEnd].report.cells) {
            const auto it = pre_by_key.find(cell.key());
            if (it != pre_by_key.end())
                cell.preRewriteSeconds = it->second;
        }
    }

    // mkdir -p for the output directory (existing components are ok).
    std::string dir_prefix;
    for (const auto &component : split(out_dir, '/')) {
        dir_prefix += component + "/";
        if (!component.empty() && component != ".")
            ::mkdir(dir_prefix.c_str(), 0777);
    }
    for (const auto &doc : docs) {
        const std::string path = out_dir + "/" + doc.file;
        const Status written =
            writeFileAtomic(path, benchReportToJson(doc.report));
        if (!written.ok()) {
            std::cerr << argv0 << ": " << written.toString() << "\n";
            return 1;
        }
        std::cerr << "perf: wrote " << path << "\n";
    }

    if (!check)
        return 0;

    // The regression gate: join each gated document against its
    // committed baseline and fail on a slowdown beyond the threshold.
    // Per-pass kernel times cover ~a third of a schedule() call, so
    // machine-load noise swings them far more than the cells the gate
    // protects; their delta table is printed as the diagnostic when
    // the gate fails (it localises the regression to a pass).
    BenchCompareOptions compare;
    compare.slowdownThreshold = threshold / 100.0;
    auto baseline = [&](const PerfDocument &doc) {
        return loadBenchReport(argv0, baseline_dir + "/" + doc.file);
    };
    bool ok = true;
    for (const auto &doc : docs) {
        if (!doc.gated)
            continue;
        const auto base = baseline(doc);
        if (!base.has_value()) {
            ok = false;
            continue;
        }
        std::cout << "perf gate: " << doc.report.kind << " vs "
                  << baseline_dir << "/" << doc.file << " (threshold "
                  << formatDouble(threshold, 0) << "%)\n";
        ok = compareBenchReports(*base, doc.report, compare, std::cout) &&
             ok;
        std::cout << "\n";
    }
    if (ok) {
        std::cout << "perf gate ok\n";
        return 0;
    }
    const PerfDocument &kernels = docs[kPassKernels];
    if (const auto base = baseline(kernels)) {
        std::cout << "perf gate: per-kernel deltas (diagnostic)\n";
        (void)compareBenchReports(*base, kernels.report, compare,
                                  std::cout);
        std::cout << "\n";
    }
    std::cerr << argv0 << ": perf gate FAILED\n";
    return 1;
}

// ---- list ----------------------------------------------------------

int
runList()
{
    std::cout << "workloads:\n";
    for (const auto &spec : allWorkloads())
        std::cout << "  " << spec.name << "  -- " << spec.description
                  << "\n";
    std::cout << "perf workloads (csched_bench perf):\n";
    for (const auto &spec : perfWorkloads())
        std::cout << "  " << spec.name << "  -- " << spec.description
                  << "\n";
    std::cout << "machines: vliwN, rawN, rawRxC, single\n";
    std::cout << "algorithms:";
    for (const auto &name : knownAlgorithmNames())
        std::cout << " " << name;
    std::cout << "\nonline policies (stream workloads, see "
                 "online/policy.hh):";
    for (const auto &name : knownOnlinePolicyNames())
        std::cout << " " << name;
    std::cout << "\npasses:";
    for (const auto &name : knownPassNames())
        std::cout << " " << name;
    std::cout << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (!args.empty() && args[0] == "suite")
        return runSuite(argv[0], {args.begin() + 1, args.end()});
    if (!args.empty() && args[0] == "perf")
        return runPerf(argv[0], {args.begin() + 1, args.end()});
    if (!args.empty() && args[0] == "list")
        return runList();
    if (!args.empty() && args[0] == "--version")
        return printToolVersion("csched_bench");
    if (args.empty() || args[0] == "help")
        usage(argv[0]);
    usage(argv[0], "unknown subcommand '" + args[0] + "'");
}
