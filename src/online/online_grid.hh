/**
 * @file
 * Online cells on the offline grid substrate.
 *
 * An online experiment cell is (stream x machine x policy), and it is
 * an ordinary grid cell: streams ride the grid's *workload* axis
 * (stream specs are workload-shaped strings, see arrival.hh) and
 * policies ride its *algorithm* axis (policy specs parse through
 * parseAlgorithmSpec), so validateGrid checks them and runGrid runs
 * them with every grid contract unchanged: journal + resume,
 * --isolate worker containment (specs cross the worker pipe in text
 * form), remote hosts, fault injection, retries/deadlines, and
 * byte-identical csched-grid-report-v2 output at any --jobs value.
 * An online sweep is a GridSpec with stream workloads and policy
 * algorithms (csched_bench suite); a single online cell is a
 * csched_cli run with a stream --workload and a policy --algorithm.
 *
 * The split of responsibilities: grid_runner routes any job whose
 * workload is a stream (or whose algorithm is an online policy) to
 * runOnlineJobAttempt below, which parses both sides, generates the
 * arrivals, runs the commit loop, and scores the timeline into the
 * JobResult's online fields.  A stream workload with an offline
 * algorithm (or vice versa) is an InvalidSpec job outcome, not a
 * grid error.
 */

#ifndef CSCHED_ONLINE_ONLINE_GRID_HH
#define CSCHED_ONLINE_ONLINE_GRID_HH

#include "runner/grid_runner.hh"

namespace csched {

/** True when @p spec is an online cell (stream and/or policy side). */
bool isOnlineJobSpec(const JobSpec &spec);

/**
 * One attempt of one online job: parse stream + policy, generate the
 * arrivals, run the commit loop, verify every region plan, score the
 * timeline.  Measurement fields of @p out are written only on the
 * success path (mirrors the offline runJobAttempt contract; called
 * from inside its try block so StatusError unwinds identically).
 */
Status runOnlineJobAttempt(const JobSpec &spec, JobResult &out);

} // namespace csched

#endif // CSCHED_ONLINE_ONLINE_GRID_HH
