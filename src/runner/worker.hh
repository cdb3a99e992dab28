/**
 * @file
 * Process-isolated job execution: the containment layer behind the
 * grid runner's --isolate mode.
 *
 * In-process execution (runner/job.hh) already contains every
 * *cooperative* failure -- bad specs, checker rejections, deadlines,
 * injected faults -- but a job that segfaults, hangs in non-polling
 * code, or exhausts memory takes the whole grid down with it.  This
 * layer closes that gap: each job runs inside a forked worker process
 * that talks to the parent over a length-prefixed pipe protocol
 * (support/subprocess.hh), so a worker death of any kind becomes one
 * more recorded per-job outcome:
 *
 *  - death by signal, nonzero exit, OOM kill, or a garbled reply
 *    frame  -> JobOutcome::Failed with ErrorCode::WorkerCrashed;
 *  - killed by the parent watchdog after exceeding its wall-clock
 *    budget -> JobOutcome::Timeout with ErrorCode::WorkerKilled.
 *
 * Both carry the fatal signal / exit status and the worker's last
 * stderr lines in the result, are retryable (the pool forks a
 * replacement and re-dispatches, consuming one attempt per dead
 * dispatch), and flow through the journal, resume, and
 * failure-summary contracts unchanged.  Isolation is pure packaging:
 * the child executes the very same runJob(), so the deterministic
 * report layer -- outcomes, diagnostics, attempt counts, measurements
 * -- is byte-identical to an in-process run of the same grid, at any
 * --jobs value.
 *
 * The job spec crosses the process boundary in its *text* form
 * (workload/machine names, AlgorithmSpec::text(), FaultPlan::text()),
 * so anything a driver can express round-trips exactly.
 *
 * Deterministic worker deaths are injected through three parent-side
 * fault points hit once per dispatch, in the job's own fault scope:
 * "worker.crash" (the child raises SIGSEGV), "worker.hang" (the child
 * blocks forever; needs a deadline to be observed), and "worker.oom"
 * (the child allocates until its RLIMIT_AS kills it).  Hit counters
 * persist across respawns, so `worker.crash=fail:nth=1` models a
 * transient crash that the retry heals.
 */

#ifndef CSCHED_RUNNER_WORKER_HH
#define CSCHED_RUNNER_WORKER_HH

#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "runner/job.hh"
#include "support/fault_injection.hh"

namespace csched {

class Worker;
class JsonWriter;
struct JsonValue;

/**
 * A pool of forked worker processes, one job in flight per worker.
 *
 * The constructor pre-forks @p size workers immediately -- call it
 * while the process is still single-threaded (before the ThreadPool
 * exists) so the children never start from a mid-operation heap or a
 * held lock.  Replacements for dead workers are forked on demand from
 * pool threads; that path is guarded by the pthread_atfork hook on
 * the logging mutex (see logging.hh).  The constructor also ignores
 * SIGPIPE so a write to a dead worker surfaces as EPIPE, not a parent
 * death.
 */
class WorkerPool
{
  public:
    /**
     * Fork @p size workers.  Each child caps its address space at
     * @p mem_limit_mb megabytes (0 = unlimited) and its cumulative
     * CPU time at @p cpu_limit_sec seconds (0 = unlimited; a coarse
     * backstop under the parent watchdog, not a per-job limit).
     */
    explicit WorkerPool(int size, int mem_limit_mb = 0,
                        int cpu_limit_sec = 0);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    int size() const { return size_; }

    /**
     * Take the least recently released idle worker (forking a
     * replacement if none is idle); nullptr only when forking fails.
     * Internal to runJobIsolated.
     */
    std::unique_ptr<Worker> acquire();

    /** Return a healthy worker for reuse. */
    void release(std::unique_ptr<Worker> worker);

  private:
    const int memLimitMb_;
    const int cpuLimitSec_;
    int size_ = 0;
    std::mutex mutex_;
    std::deque<std::unique_ptr<Worker>> idle_;
};

/**
 * Execute one job in a worker process from @p pool, under the same
 * policy, fault-scope, retry, and drain semantics as runJob() -- plus
 * the containment described above.  @p baselines must supply the
 * memoized single-cluster entry when spec.computeSpeedup is set (the
 * grid always does); the entry ships to the child in the job frame so
 * baseline failures poison dependents identically to in-process runs.
 *
 * @p propagate_interrupt: an `interrupted` reply from the worker
 * (its own signal, or an injected runner.interrupt inside the job)
 * normally drains the whole grid, exactly as it would in-process.
 * The remote worker daemon (dist/workerd.hh) passes false: there the
 * interrupt belongs to the *client's* grid, and draining the daemon
 * for a job-level interrupt would take every other client's jobs
 * down with it.
 */
JobResult runJobIsolated(const JobSpec &spec, const JobPolicy &policy,
                         WorkerPool &pool,
                         const BaselineMemo *baselines = nullptr,
                         bool propagate_interrupt = true);

/**
 * Serialize one job dispatch frame: the spec in text form, the policy
 * (with @p retries attempts remaining for the child), the armed fault
 * plan, a death directive ("" / "crash" / "hang" / "oom"), and the
 * memoized baseline entry if any.  Exposed for protocol tests.
 */
std::string encodeWorkerJob(const JobSpec &spec,
                            const JobPolicy &policy, int retries,
                            const std::string &die,
                            const BaselineMemo *baselines);

/**
 * Decode a worker reply frame back into the JobResult it carries.
 * Anything that does not parse as a complete result -- truncation
 * artifacts, garbage from a corrupted worker -- comes back as a
 * WorkerCrashed status with the reason, never a throw or a hang.
 */
StatusOr<JobResult> decodeWorkerReply(const std::string &payload);

/**
 * The field layer under encodeWorkerJob: writes the job-dispatch
 * fields into an already-open JSON object, so other envelopes -- the
 * dist protocol's `job` message (dist/protocol.hh) -- can carry the
 * exact same text-form job crossing with their own framing around it.
 */
void writeWorkerJobFields(JsonWriter &w, const JobSpec &spec,
                          const JobPolicy &policy, int retries,
                          const std::string &die,
                          const BaselineMemo *baselines);

/**
 * One decoded job-dispatch frame: everything a remote executor needs
 * to run the job, with owned storage for the parts JobPolicy only
 * borrows (the fault plan) and the baseline memo entry.
 */
struct WorkerJobFrame
{
    JobSpec spec;
    int deadlineMs = 0;
    int retries = 0;
    std::optional<FaultPlan> faults;  ///< owned; policy() points here
    std::string die;                  ///< "", "crash", "hang", "oom"
    bool hasBaseline = false;
    BaselineEntry baseline;

    /**
     * The policy for running this frame.  Borrows this->faults: only
     * valid while the frame outlives the returned policy's use.
     */
    JobPolicy policy() const
    {
        JobPolicy out;
        out.deadlineMs = deadlineMs;
        out.retries = retries;
        out.faults = faults.has_value() ? &*faults : nullptr;
        return out;
    }

    /** The baseline entry as a one-entry memo (empty when absent). */
    BaselineMemo baselineMemo() const
    {
        BaselineMemo memo;
        if (hasBaseline)
            memo[{spec.workload, spec.machine}] = baseline;
        return memo;
    }
};

/**
 * Inverse of writeWorkerJobFields over a parsed JSON object: the
 * decoder both the forked worker child and the remote worker daemon
 * run on every incoming job frame.  Missing or mis-typed fields, an
 * unparsable algorithm, or a garbled fault plan come back as an
 * InvalidSpec status -- the frame is addressable garbage, never a crash.
 */
StatusOr<WorkerJobFrame> decodeWorkerJobFields(const JsonValue &msg);

} // namespace csched

#endif // CSCHED_RUNNER_WORKER_HH
