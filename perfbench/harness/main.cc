/**
 * @file
 * perfbench_harness: runs one benchmark workload against the csched
 * library and daemons and writes every raw sample as JSON.  The
 * statistics, the correctness verdict and the result line are
 * perfbench/run.py's job; run that, not this.
 *
 *   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
 *                     --out RAW.json --bin-dir DIR --run-dir DIR
 *                     [--spans TRACE.json]
 *
 * Exit code 0 when every operation succeeded, 1 when any failed (the
 * raw report is written either way), 2 on a usage error.
 */
#include <iostream>
#include <string>

#include "common.hh"

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_harness: " << why << "\n"
              << "usage: perfbench_harness --workload NAME --seed N"
              << " --seconds S --trace 0|1 --out FILE --bin-dir DIR"
              << " --run-dir DIR [--spans FILE]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    for (int k = 1; k < argc; ++k) {
        const std::string arg = argv[k];
        if (k + 1 >= argc)
            usage(arg + " needs a value");
        const std::string value = argv[++k];
        try {
            if (arg == "--workload")
                options.workload = value;
            else if (arg == "--seed")
                options.seed = std::stoull(value);
            else if (arg == "--seconds")
                options.seconds = std::stod(value);
            else if (arg == "--trace")
                options.trace = std::stoi(value) != 0;
            else if (arg == "--out")
                options.out = value;
            else if (arg == "--spans")
                options.spans = value;
            else if (arg == "--bin-dir")
                options.binDir = value;
            else if (arg == "--run-dir")
                options.runDir = value;
            else
                usage("unknown option " + arg);
        } catch (const std::exception &) {
            usage("bad value for " + arg + ": " + value);
        }
    }
    if (options.out.empty() || options.binDir.empty() ||
        options.runDir.empty())
        usage("--out, --bin-dir and --run-dir are required");

    Tracer tracer(options.trace);
    Report report;
    int code = 0;
    if (options.workload == "convergent-large" ||
        options.workload == "mesh-baselines")
        code = runInProcess(options, report, tracer);
    else if (options.workload == "serve-mix")
        code = runServeMix(options, report, tracer);
    else if (options.workload == "grid-dist")
        code = runGridDist(options, report, tracer);
    else
        usage("unknown workload " + options.workload);

    if (!writeReport(options, report, tracer)) {
        std::cerr << "perfbench_harness: cannot write " << options.out
                  << "\n";
        return 1;
    }
    if (options.trace && !options.spans.empty() &&
        !tracer.writeChromeTrace(options.spans)) {
        std::cerr << "perfbench_harness: cannot write " << options.spans
                  << "\n";
        return 1;
    }
    return code != 0 || report.failed > 0 ? 1 : 0;
}
