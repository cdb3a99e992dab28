#include "runner/worker.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "eval/experiment.hh"
#include "runner/shutdown.hh"
#include "runner/json_report.hh"
#include "support/cancel.hh"
#include "support/fault_injection.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/subprocess.hh"

namespace csched {

namespace {

/** Fixed spellings for the signals workers die by (deterministic
 *  diagnostics must not depend on strsignal's locale). */
const char *
signalName(int signum)
{
    switch (signum) {
      case SIGSEGV: return "SIGSEGV";
      case SIGKILL: return "SIGKILL";
      case SIGTERM: return "SIGTERM";
      case SIGINT:  return "SIGINT";
      case SIGABRT: return "SIGABRT";
      case SIGBUS:  return "SIGBUS";
      case SIGFPE:  return "SIGFPE";
      case SIGILL:  return "SIGILL";
      case SIGXCPU: return "SIGXCPU";
      case SIGPIPE: return "SIGPIPE";
      default:      return nullptr;
    }
}

std::string
describeSignal(int signum)
{
    const char *name = signalName(signum);
    return name != nullptr ? std::string(name)
                           : "signal " + std::to_string(signum);
}

// ---------------------------------------------------------------------
// Child side.
// ---------------------------------------------------------------------

/**
 * The "oom" death directive: allocate-and-touch until RLIMIT_AS makes
 * malloc fail (the contained analogue of a real memory runaway), then
 * die the way the kernel OOM killer kills -- by SIGKILL.  Without a
 * limit the loop caps itself at 1 GiB so the directive still produces
 * a deterministic death instead of taking the machine down.
 */
[[noreturn]] void
dieOfMemory()
{
    constexpr size_t kBlock = 16u << 20;
    constexpr size_t kCap = 1u << 30;
    size_t total = 0;
    while (total < kCap) {
        char *block = static_cast<char *>(std::malloc(kBlock));
        if (block == nullptr)
            break;
        // One touch per block keeps the allocator honest; RLIMIT_AS
        // accounts the virtual reservation either way, and touching
        // every page would only burn wall-clock (slowly enough under
        // a sanitizer to lose the race with the parent watchdog).
        block[0] = 1;
        total += kBlock;   // leaked on purpose; this process is dying
    }
    ::raise(SIGKILL);
    ::_exit(121);  // unreachable; SIGKILL cannot be handled
}

/** Rebuild the Status shipped in baseline{Error,Message} fields. */
Status
statusFromWire(const std::string &code_name, const std::string &message)
{
    if (code_name == "ok")
        return Status();
    const auto code = parseErrorCodeName(code_name);
    return Status::error(code.value_or(ErrorCode::Internal), message);
}

std::string
encodeWorkerReply(const JobResult &result)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        writeJobResultFields(w, result);
        w.endObject();
    }
    return compactJson(out.str());
}

/** Decode and run one dispatched job; never throws. */
JobResult
runWorkerJob(const JsonValue &msg)
{
    auto frame = decodeWorkerJobFields(msg);
    if (!frame.ok()) {
        JobResult bad;
        bad.outcome = JobOutcome::Failed;
        JsonFields(msg, "worker job frame")
            .optional("workload", &bad.workload)
            .optional("machine", &bad.machine)
            .optional("algorithm", &bad.algorithm);
        bad.error = frame.status().code();
        bad.diagnostic = frame.status().message();
        return bad;
    }
    const BaselineMemo memo = frame->baselineMemo();
    return runJob(frame->spec, frame->policy(),
                  memo.empty() ? nullptr : &memo);
}

/**
 * The worker process body: a read-job/run/reply loop that only exits
 * on EOF (pool teardown) or an unusable channel.  Entered right after
 * fork(); never returns to the caller's stack.
 */
[[noreturn]] void
workerChildMain(int in_fd, int out_fd, int mem_limit_mb,
                int cpu_limit_sec)
{
    // A fresh shutdown slate: the child reacts to its *own* signals
    // (the parent forwards SIGTERM during a drain) by interrupting
    // the current job and replying `interrupted`, exactly like an
    // in-process job reacting to a shutdown request.
    clearInterrupt();
    resetGlobalCancel();
    installGridSignalHandlers();
    applyChildResourceLimits(mem_limit_mb, cpu_limit_sec);
#ifdef __linux__
    // Workers inherit each other's pipe ends (fork, no exec), so a
    // parent crash does not reliably EOF every child; die with the
    // parent instead of lingering as an orphan.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif

    for (;;) {
        const FrameResult frame = readFrame(in_fd);
        if (frame.kind == FrameResult::Kind::Eof)
            ::_exit(0);
        if (!frame.ok())
            ::_exit(110);  // unusable channel; parent sees a death
        const auto msg = parseJson(frame.payload);
        if (!msg.has_value() || msg->kind != JsonValue::Kind::Object)
            ::_exit(111);

        // Death directives: the parent-side worker.* fault points
        // decided this dispatch must demonstrate containment.
        std::string die;
        JsonFields(*msg, "worker job frame").optional("die", &die);
        if (die == "crash") {
            // A sanitizer runtime intercepts SIGSEGV and would turn
            // the death into an abort/exit; restore the default
            // disposition so the worker dies by the real signal under
            // every build flavour.
            std::signal(SIGSEGV, SIG_DFL);
            ::raise(SIGSEGV);
            ::_exit(112);  // only if SIGSEGV was blocked somehow
        }
        if (die == "hang")
            for (;;)
                ::pause();
        if (die == "oom")
            dieOfMemory();

        const JobResult result = runWorkerJob(*msg);
        if (!writeFrame(out_fd, encodeWorkerReply(result)).ok())
            ::_exit(113);
    }
}

} // namespace

// ---------------------------------------------------------------------
// Parent side.
// ---------------------------------------------------------------------

namespace {

/** How one dispatch (send + await reply) ended. */
struct Dispatch
{
    enum class Kind {
        Reply,     ///< a complete reply frame arrived
        Died,      ///< the worker died (or garbled the channel)
        Watchdog,  ///< no reply within the budget; worker killed
    };

    Kind kind = Kind::Died;
    FrameResult frame;   ///< Reply payload, or the channel failure
    int waitStatus = 0;  ///< raw waitpid() status for Died/Watchdog
    int budgetMs = 0;    ///< the watchdog budget that expired
};

} // namespace

/** One forked worker process and the parent's ends of its channel. */
class Worker
{
  public:
    ~Worker()
    {
        killAndReap();
        if (toChild_ >= 0)
            ::close(toChild_);
        if (fromChild_ >= 0)
            ::close(fromChild_);
        if (stderrFd_ >= 0)
            ::close(stderrFd_);
    }

    Worker(const Worker &) = delete;
    Worker &operator=(const Worker &) = delete;

    static std::unique_ptr<Worker> spawn(int mem_limit_mb,
                                         int cpu_limit_sec);

    Status send(const std::string &payload)
    {
        return writeFrame(toChild_, payload);
    }

    Dispatch await(int budget_ms);

    bool dead() const { return reaped_; }
    int waitStatus() const { return waitStatus_; }

    /** Current size of the worker's stderr capture file. */
    long stderrSize() const
    {
        struct stat st;
        if (stderrFd_ < 0 || ::fstat(stderrFd_, &st) != 0)
            return 0;
        return static_cast<long>(st.st_size);
    }

    /** Last stderr lines the worker wrote after @p offset. */
    std::string stderrTailSince(long offset) const
    {
        const long size = stderrSize();
        if (stderrFd_ < 0 || size <= offset)
            return "";
        // Only the tail matters for a diagnostic; cap the read.
        constexpr long kTailBytes = 16 << 10;
        const long begin = std::max(offset, size - kTailBytes);
        std::string text(static_cast<size_t>(size - begin), '\0');
        const ssize_t n =
            ::pread(stderrFd_, text.data(), text.size(),
                    static_cast<off_t>(begin));
        if (n <= 0)
            return "";
        text.resize(static_cast<size_t>(n));
        return lastLines(text, 5);
    }

    /** SIGKILL + reap, once; safe to call on an already-dead worker. */
    int killAndReap()
    {
        if (reaped_)
            return waitStatus_;
        ::kill(pid_, SIGKILL);
        int status = 0;
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        reaped_ = true;
        waitStatus_ = status;
        return status;
    }

  private:
    Worker(pid_t pid, int to_child, int from_child, int stderr_fd)
        : pid_(pid), toChild_(to_child), fromChild_(from_child),
          stderrFd_(stderr_fd)
    {
    }

    /** Reap without killing; true when the child has exited. */
    bool reapIfDead()
    {
        if (reaped_)
            return true;
        int status = 0;
        const pid_t got = ::waitpid(pid_, &status, WNOHANG);
        if (got != pid_)
            return false;
        reaped_ = true;
        waitStatus_ = status;
        return true;
    }

    pid_t pid_;
    int toChild_;
    int fromChild_;
    int stderrFd_;
    bool reaped_ = false;
    int waitStatus_ = 0;
};

std::unique_ptr<Worker>
Worker::spawn(int mem_limit_mb, int cpu_limit_sec)
{
    int down[2];  // parent -> child (job frames)
    int up[2];    // child -> parent (reply frames)
    if (::pipe(down) != 0)
        return nullptr;
    if (::pipe(up) != 0) {
        ::close(down[0]);
        ::close(down[1]);
        return nullptr;
    }

    // The child's stderr goes to an unlinked temp file the parent can
    // pread() from, so a death diagnostic can carry the worker's last
    // words.  O_APPEND keeps child writes at the end regardless of the
    // parent's reads.  Failure to create it only costs the tail.
    char path[] = "/tmp/csched-worker-stderr-XXXXXX";
    const int stderr_fd = ::mkstemp(path);
    if (stderr_fd >= 0) {
        ::unlink(path);
        ::fcntl(stderr_fd, F_SETFL, O_APPEND);
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(down[0]);
        ::close(down[1]);
        ::close(up[0]);
        ::close(up[1]);
        if (stderr_fd >= 0)
            ::close(stderr_fd);
        return nullptr;
    }
    if (pid == 0) {
        ::close(down[1]);
        ::close(up[0]);
        if (stderr_fd >= 0) {
            ::dup2(stderr_fd, 2);
            ::close(stderr_fd);
        }
        workerChildMain(down[0], up[1], mem_limit_mb, cpu_limit_sec);
    }
    ::close(down[0]);
    ::close(up[1]);
    return std::unique_ptr<Worker>(
        new Worker(pid, down[1], up[0], stderr_fd));
}

Dispatch
Worker::await(int budget_ms)
{
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    std::optional<Clock::time_point> deadline;
    if (budget_ms > 0)
        deadline = start + std::chrono::milliseconds(budget_ms);
    // Once a drain begins the worker gets SIGTERM (mirroring what the
    // terminal would deliver) and a short grace budget to reply
    // `interrupted`; a worker that cannot (it is hung, or mid-crash)
    // is killed, and the caller maps that death to Interrupted.
    std::optional<Clock::time_point> drainDeadline;
    bool term_forwarded = false;

    // A complete reply frame arrives in one child write; the slices
    // here only bound the *wait for its first byte*, so the watchdog
    // and drain checks run a few times per second without ever
    // splitting a frame across reads.
    constexpr int kSliceMs = 50;
    // Generous bound for the rest of a frame whose first byte arrived
    // (the child could still die mid-write).
    constexpr int kFrameCompletionMs = 10'000;

    for (;;) {
        if (interruptRequested() && !term_forwarded) {
            ::kill(pid_, SIGTERM);
            term_forwarded = true;
            drainDeadline =
                Clock::now() + std::chrono::milliseconds(2000);
        }

        std::optional<Clock::time_point> effective = deadline;
        if (drainDeadline.has_value() &&
            (!effective.has_value() || *drainDeadline < *effective))
            effective = drainDeadline;

        const auto now = Clock::now();
        if (effective.has_value() && now >= *effective) {
            Dispatch dispatch;
            dispatch.kind = Dispatch::Kind::Watchdog;
            dispatch.budgetMs = budget_ms;
            dispatch.waitStatus = killAndReap();
            return dispatch;
        }

        int slice = kSliceMs;
        if (effective.has_value()) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    *effective - now)
                    .count();
            slice = static_cast<int>(
                std::max<long long>(1, std::min<long long>(slice, left)));
        }

        struct pollfd probe = {fromChild_, POLLIN, 0};
        const int rc = ::poll(&probe, 1, slice);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            Dispatch dispatch;
            dispatch.kind = Dispatch::Kind::Died;
            dispatch.frame.kind = FrameResult::Kind::Malformed;
            dispatch.frame.error =
                std::string("poll: ") + std::strerror(errno);
            dispatch.waitStatus = killAndReap();
            return dispatch;
        }
        if (rc > 0 && (probe.revents & (POLLIN | POLLHUP | POLLERR))) {
            const FrameResult frame =
                readFrame(fromChild_, kFrameCompletionMs);
            Dispatch dispatch;
            dispatch.frame = frame;
            if (frame.ok()) {
                dispatch.kind = Dispatch::Kind::Reply;
                return dispatch;
            }
            dispatch.kind = Dispatch::Kind::Died;
            dispatch.waitStatus = killAndReap();
            return dispatch;
        }

        // Quiet pipe: if the worker is dead we are done waiting -- but
        // a reply may have raced in between the poll and the reap, so
        // check the pipe once more before concluding "no reply".
        if (reapIfDead()) {
            struct pollfd again = {fromChild_, POLLIN, 0};
            if (::poll(&again, 1, 0) > 0 &&
                (again.revents & (POLLIN | POLLHUP | POLLERR))) {
                const FrameResult frame =
                    readFrame(fromChild_, kFrameCompletionMs);
                Dispatch dispatch;
                dispatch.frame = frame;
                dispatch.waitStatus = waitStatus_;
                dispatch.kind = frame.ok() ? Dispatch::Kind::Reply
                                           : Dispatch::Kind::Died;
                return dispatch;
            }
            Dispatch dispatch;
            dispatch.kind = Dispatch::Kind::Died;
            dispatch.frame.kind = FrameResult::Kind::Eof;
            dispatch.waitStatus = waitStatus_;
            return dispatch;
        }
    }
}

// ---------------------------------------------------------------------
// WorkerPool.
// ---------------------------------------------------------------------

WorkerPool::WorkerPool(int size, int mem_limit_mb, int cpu_limit_sec)
    : memLimitMb_(mem_limit_mb), cpuLimitSec_(cpu_limit_sec),
      size_(std::max(1, size))
{
    // A worker that dies mid-read leaves the parent writing into a
    // closed pipe; that must be an EPIPE Status, not a fatal SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
    // Mid-run respawns fork from pool threads; keep the logging mutex
    // consistent across those forks.
    installLogForkGuard();
    for (int k = 0; k < size_; ++k) {
        auto worker = Worker::spawn(memLimitMb_, cpuLimitSec_);
        if (worker == nullptr) {
            CSCHED_WARN("worker pre-fork failed: ",
                        std::strerror(errno));
            break;
        }
        idle_.push_back(std::move(worker));
    }
}

WorkerPool::~WorkerPool() = default;

std::unique_ptr<Worker>
WorkerPool::acquire()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Least recently released first, so every pre-forked worker
        // takes jobs in turn.
        if (!idle_.empty()) {
            auto worker = std::move(idle_.front());
            idle_.pop_front();
            return worker;
        }
    }
    return Worker::spawn(memLimitMb_, cpuLimitSec_);
}

void
WorkerPool::release(std::unique_ptr<Worker> worker)
{
    if (worker == nullptr || worker->dead())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back(std::move(worker));
}

// ---------------------------------------------------------------------
// runJobIsolated.
// ---------------------------------------------------------------------

namespace {

/**
 * Hit the three worker.* fault points for this dispatch and return
 * the death directive the first firing rule selects ("" for none).
 * All three points are hit every time so their per-scope counters
 * advance in lockstep with dispatches, and the counters live in the
 * parent -- which is what lets an nth=1 rule fire on the first
 * dispatch only, even though that dispatch's worker dies and a fresh
 * one takes its place.
 */
std::string
deathDirective()
{
    std::string directive;
    for (const char *point :
         {"worker.crash", "worker.hang", "worker.oom"}) {
        try {
            faultPoint(point);
        } catch (const StatusError &) {
            if (directive.empty())
                directive = point + std::strlen("worker.");
        }
    }
    return directive;
}

/**
 * Wall-clock budget for one dispatch: the child enforces the
 * per-attempt deadline itself, so the parent watchdog only has to
 * catch a child that stopped cooperating -- its budget covers every
 * attempt the child may legitimately run, their retry backoffs, and
 * startup slack.  0 (no watchdog) without a deadline: a hang can then
 * wait forever, exactly like non-polling code in an in-process run.
 */
int
watchdogBudgetMs(const JobPolicy &policy, int child_attempts)
{
    if (policy.deadlineMs <= 0)
        return 0;
    // Both factors may be as large as a job frame allows.
    const int64_t budget =
        (int64_t{policy.deadlineMs} + 250) * child_attempts + 1000;
    return static_cast<int>(std::min<int64_t>(budget, INT_MAX));
}

/** The deterministic half of a worker-death diagnostic. */
std::string
describeDeath(const Dispatch &dispatch)
{
    if (dispatch.kind == Dispatch::Kind::Watchdog)
        return "worker gave no reply within the " +
               std::to_string(dispatch.budgetMs) +
               " ms watchdog budget; killed";
    if (dispatch.frame.kind == FrameResult::Kind::Malformed ||
        dispatch.frame.kind == FrameResult::Kind::Oversized)
        return "worker protocol error: " + dispatch.frame.error;
    const int status = dispatch.waitStatus;
    if (WIFSIGNALED(status))
        return "worker killed by " +
               describeSignal(WTERMSIG(status));
    if (WIFEXITED(status) && WEXITSTATUS(status) != 0)
        return "worker exited with status " +
               std::to_string(WEXITSTATUS(status));
    return "worker exited without a reply";
}

} // namespace

void
writeWorkerJobFields(JsonWriter &w, const JobSpec &spec,
                     const JobPolicy &policy, int retries,
                     const std::string &die,
                     const BaselineMemo *baselines)
{
    w.key("workload").value(spec.workload);
    w.key("machine").value(spec.machine);
    w.key("algorithm").value(spec.algorithm.text());
    w.key("computeSpeedup").value(spec.computeSpeedup);
    w.key("deadlineMs").value(policy.deadlineMs);
    w.key("retries").value(retries);
    w.key("faults").value(
        policy.faults != nullptr ? policy.faults->text() : "");
    w.key("die").value(die);
    if (baselines != nullptr) {
        const auto it = baselines->find({spec.workload, spec.machine});
        if (it != baselines->end()) {
            w.key("baselineError")
                .value(std::string(
                    errorCodeName(it->second.status.code())));
            w.key("baselineMessage")
                .value(it->second.status.message());
            w.key("baselineMakespan").value(it->second.makespan);
        }
    }
}

std::string
encodeWorkerJob(const JobSpec &spec, const JobPolicy &policy,
                int retries, const std::string &die,
                const BaselineMemo *baselines)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        writeWorkerJobFields(w, spec, policy, retries, die, baselines);
        w.endObject();
    }
    return compactJson(out.str());
}

StatusOr<WorkerJobFrame>
decodeWorkerJobFields(const JsonValue &msg)
{
    WorkerJobFrame frame;
    std::string algorithm_text;
    std::string faults_text;
    JsonFields fields(msg, "worker job frame");
    fields.get("workload", &frame.spec.workload)
        .get("machine", &frame.spec.machine)
        .get("algorithm", &algorithm_text)
        .get("computeSpeedup", &frame.spec.computeSpeedup)
        .get("deadlineMs", &frame.deadlineMs, 0)
        .get("retries", &frame.retries, 0)
        .get("faults", &faults_text)
        .optional("die", &frame.die);
    if (msg.find("baselineMakespan") != nullptr) {
        std::string code;
        std::string message;
        fields.get("baselineMakespan", &frame.baseline.makespan)
            .get("baselineError", &code)
            .get("baselineMessage", &message);
        frame.hasBaseline = true;
        frame.baseline.status = statusFromWire(code, message);
    }
    if (!fields.ok())
        return fields.status();

    std::string error;
    const auto algorithm = parseAlgorithmSpec(algorithm_text, &error);
    if (!algorithm.has_value())
        return Status::invalidSpec(error);
    frame.spec.algorithm = *algorithm;
    if (!faults_text.empty()) {
        frame.faults = FaultPlan::parse(faults_text, &error);
        if (!frame.faults.has_value())
            return Status::invalidSpec(
                "worker fault plan did not parse: " + error);
    }
    return frame;
}

StatusOr<JobResult>
decodeWorkerReply(const std::string &payload)
{
    const auto parsed = parseJson(payload);
    if (!parsed.has_value())
        return Status::workerCrashed(
            "worker protocol error: reply frame is not JSON");
    auto result = parseJobResultFields(*parsed);
    if (!result.ok())
        return Status::workerCrashed("worker protocol error: " +
                                     result.status().message());
    return std::move(*result);
}

JobResult
runJobIsolated(const JobSpec &spec, const JobPolicy &policy,
               WorkerPool &pool, const BaselineMemo *baselines,
               bool propagate_interrupt)
{
    JobResult result;
    result.workload = spec.workload;
    result.machine = spec.machine;
    result.algorithm = spec.algorithm.text();

    // The same per-job fault scope as in-process execution, holding
    // the parent-side worker.* counters.  The child binds its own
    // scope (same key) for the in-job fault points, so no point is
    // counted twice.
    FaultScope faults(policy.faults, jobKey(spec));
    ScopedFaultScope fault_guard(&faults);
    ScopedLogContext log_context("job " + jobKey(spec));

    if (interruptRequested()) {
        markInterrupted(result, "before the job started");
        result.attempts = 0;
        return result;
    }

    const int max_attempts = 1 + std::clamp(policy.retries, 0, INT_MAX - 1);
    int consumed = 0;  // attempts burned by dead dispatches
    std::vector<int> backoffs;  // parent-side re-dispatch delays, ms

    for (;;) {
        const std::string die = deathDirective();
        auto worker = pool.acquire();
        if (worker == nullptr) {
            result.outcome = JobOutcome::Failed;
            result.error = ErrorCode::WorkerCrashed;
            result.diagnostic = "cannot fork an isolated worker: " +
                                std::string(std::strerror(errno));
            result.attempts = consumed + 1;
            return result;
        }
        const long stderr_mark = worker->stderrSize();

        const int child_attempts = max_attempts - consumed;
        const std::string frame = encodeWorkerJob(
            spec, policy, child_attempts - 1, die, baselines);

        Dispatch dispatch;
        const Status sent = worker->send(frame);
        if (sent.ok()) {
            dispatch =
                worker->await(watchdogBudgetMs(policy, child_attempts));
        } else {
            // The worker died before (or while) taking the job.
            dispatch.kind = Dispatch::Kind::Died;
            dispatch.frame.kind = FrameResult::Kind::Malformed;
            dispatch.frame.error = sent.message();
            dispatch.waitStatus = worker->killAndReap();
        }

        if (dispatch.kind == Dispatch::Kind::Reply) {
            auto decoded = decodeWorkerReply(dispatch.frame.payload);
            if (decoded.ok()) {
                result = std::move(*decoded);
                result.attempts += consumed;
                // A job interrupted inside the worker (its own signal
                // or an injected runner.interrupt) must drain the
                // whole grid, exactly as it would in-process -- unless
                // the caller is a daemon serving someone else's grid.
                if (propagate_interrupt &&
                    result.outcome == JobOutcome::Interrupted &&
                    !interruptRequested())
                    requestInterrupt(SIGINT);
                pool.release(std::move(worker));
                return result;
            }
            // A frame that parses as nothing useful counts as a
            // protocol-level crash; retire the worker.
            dispatch.kind = Dispatch::Kind::Died;
            dispatch.frame.kind = FrameResult::Kind::Malformed;
            dispatch.frame.error = decoded.status().message();
            dispatch.waitStatus = worker->killAndReap();
        }

        // The worker is gone (or garbled); one attempt is consumed.
        const std::string tail =
            worker->stderrTailSince(stderr_mark);
        worker.reset();
        ++consumed;

        if (interruptRequested()) {
            // The death happened during a drain -- likely *because* of
            // it (forwarded SIGTERM, grace-budget kill), so it is not
            // a verdict: hand the job back as interrupted, never
            // journaled, and let resume settle it.
            markInterrupted(result, "while the worker was draining");
            result.attempts = consumed;
            return result;
        }

        const int status = dispatch.waitStatus;
        if (dispatch.kind == Dispatch::Kind::Watchdog) {
            result.outcome = JobOutcome::Timeout;
            result.error = ErrorCode::WorkerKilled;
        } else {
            result.outcome = JobOutcome::Failed;
            result.error = ErrorCode::WorkerCrashed;
        }
        result.workerSignal =
            WIFSIGNALED(status) ? WTERMSIG(status) : 0;
        result.workerExitStatus =
            WIFEXITED(status) ? WEXITSTATUS(status) : 0;
        result.diagnostic = describeDeath(dispatch);
        if (!tail.empty())
            result.diagnostic += "; last stderr: " + tail;

        if (consumed >= max_attempts) {
            result.attempts = consumed;
            result.diagnostic += backoffNote(backoffs);
            return result;
        }

        // Respawn-and-retry, after the same deterministic jittered
        // backoff in-process retries use.
        const int delay = retryBackoffMs(jobKey(spec), consumed + 1);
        backoffs.push_back(delay);
        interruptibleSleep(delay);
    }
}

} // namespace csched
