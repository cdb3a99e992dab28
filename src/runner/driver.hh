/**
 * @file
 * The grid drivers' shared front and back end.  csched_cli (one cell)
 * and csched_bench suite (a sweep) both run their work through
 * runGrid, so they parse the same execution flags here and end the
 * same way: JSON report, failure summary, exit code.
 *
 * Shared execution flags (integers are strict and non-negative):
 *   --jobs N  --deadline-ms N  --retries N  --mem-limit-mb N
 *   --isolate  --journal FILE  --resume  --hosts CSV  --keep-going
 *   --json FILE ("-" = stdout)
 * plus the hidden --inject RULES (fault_injection.hh) and --dist-opts
 * KNOBS (DistOptions::applyOverrides).
 *
 * Exit-code contract (both drivers):
 *   0    every job ultimately succeeded, or --keep-going was given;
 *   1    at least one job failed or timed out after all retries, or
 *        the report could not be written;
 *   2    usage error (bad flags / specs), before any job ran;
 *   128+signum  a shutdown request (SIGINT -> 130, SIGTERM -> 143)
 *        cut the run short after a graceful drain; the partial report
 *        is marked "interrupted" and --keep-going does not downgrade
 *        it, because the grid did not finish.
 */

#ifndef CSCHED_RUNNER_DRIVER_HH
#define CSCHED_RUNNER_DRIVER_HH

#include <ostream>
#include <string>
#include <vector>

#include "dist/remote_pool.hh"
#include "runner/grid_runner.hh"
#include "runner/json_report.hh"
#include "support/fault_injection.hh"

namespace csched {

/**
 * What the shared flags set outside the GridSpec.  The GridSpec a
 * driver runs borrows faults and dist from here, so a DriverFlags must
 * outlive the run.
 */
struct DriverFlags
{
    std::string jsonFile;  ///< empty = no JSON report
    bool keepGoing = false;
    FaultPlan faults;
    DistOptions dist;
};

/**
 * Consume args[*k] -- and its value, advancing *k -- when it is a
 * shared execution flag, writing it into @p grid or @p flags.  Returns
 * false, consuming nothing, for any other argument.  A malformed value
 * returns true with the usage diagnostic in @p error (empty on
 * success).
 */
bool parseDriverFlag(const std::vector<std::string> &args, size_t *k,
                     GridSpec *grid, DriverFlags *flags,
                     std::string *error);

/**
 * The drivers' shared ending: write the JSON report when --json was
 * given (a file atomically, under the `report` fault scope, announced
 * on stdout when @p announce), print the failure summary to stderr,
 * and return the exit code.
 */
int finishGridRun(const char *argv0, const GridReport &report,
                  const DriverFlags &flags, const ReportOptions &options,
                  bool announce);

/**
 * Print one line per failed/timed-out job plus a tally to @p out
 * (intended for stderr).  Prints nothing when every job is ok and no
 * job needed a retry.
 */
void printFailureSummary(std::ostream &out, const GridReport &report);

/** The process exit status for @p report under the contract above. */
int gridExitCode(const GridReport &report, bool keep_going);

} // namespace csched

#endif // CSCHED_RUNNER_DRIVER_HH
