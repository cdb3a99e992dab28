/**
 * @file
 * Tests for the process-isolation layer (runner/worker.hh): the
 * length-prefixed pipe protocol, the reply decoder, containment of
 * injected worker deaths (segfault / hang / OOM), the determinism
 * guarantee that --isolate never changes the reported bytes, and the
 * retry/backoff and resume contracts under isolation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "runner/driver.hh"
#include "runner/grid_runner.hh"
#include "runner/journal.hh"
#include "runner/json_report.hh"
#include "runner/shutdown.hh"
#include "runner/worker.hh"
#include "support/fault_injection.hh"
#include "support/json.hh"
#include "support/subprocess.hh"

namespace csched {
namespace {

FaultPlan
mustParse(const std::string &text)
{
    std::string error;
    const auto plan = FaultPlan::parse(text, &error);
    EXPECT_TRUE(plan.has_value()) << error;
    return plan.value_or(FaultPlan());
}

/** Interrupt tests must not leak shutdown state into later tests. */
struct InterruptGuard
{
    InterruptGuard() { clearInterrupt(); }
    ~InterruptGuard() { clearInterrupt(); }
};

std::string
tempPath(const std::string &name)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + info->test_suite_name() + "-" +
           info->name() + "-" + name;
}

GridSpec
smallGrid(int jobs = 2)
{
    GridSpec grid;
    grid.workloads = {"vvmul", "fir"};
    grid.machines = {"vliw2"};
    grid.algorithms = {*parseAlgorithmSpec("uas"),
                       *parseAlgorithmSpec("convergent")};
    grid.jobs = jobs;
    return grid;
}

std::string
deterministicJson(const GridReport &report)
{
    ReportOptions options;
    options.timings = false;
    return gridReportToJson(report, options);
}

/** A pipe whose ends close on destruction (leak-proof asserts). */
struct Pipe
{
    int fds[2] = {-1, -1};
    Pipe() { EXPECT_EQ(::pipe(fds), 0); }
    ~Pipe()
    {
        closeRead();
        closeWrite();
    }
    void closeRead()
    {
        if (fds[0] != -1)
            ::close(fds[0]);
        fds[0] = -1;
    }
    void closeWrite()
    {
        if (fds[1] != -1)
            ::close(fds[1]);
        fds[1] = -1;
    }
    int readFd() const { return fds[0]; }
    int writeFd() const { return fds[1]; }
};

void
writeRaw(int fd, const std::string &bytes)
{
    ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
}

TEST(FrameProtocol, RoundTripsPayloads)
{
    Pipe pipe;
    const std::string payload = "{\"hello\": \"worker\"}";
    ASSERT_TRUE(writeFrame(pipe.writeFd(), payload).ok());
    ASSERT_TRUE(writeFrame(pipe.writeFd(), "").ok());
    auto first = readFrame(pipe.readFd(), 1000);
    ASSERT_EQ(first.kind, FrameResult::Kind::Payload) << first.error;
    EXPECT_EQ(first.payload, payload);
    auto second = readFrame(pipe.readFd(), 1000);
    ASSERT_EQ(second.kind, FrameResult::Kind::Payload) << second.error;
    EXPECT_EQ(second.payload, "");
}

TEST(FrameProtocol, CleanEofBeforeAnyByte)
{
    Pipe pipe;
    pipe.closeWrite();
    const auto result = readFrame(pipe.readFd(), 1000);
    EXPECT_EQ(result.kind, FrameResult::Kind::Eof);
}

TEST(FrameProtocol, TruncatedLengthIsMalformed)
{
    // A worker that dies two bytes into the length prefix.
    Pipe pipe;
    writeRaw(pipe.writeFd(), std::string("\x08\x00", 2));
    pipe.closeWrite();
    const auto result = readFrame(pipe.readFd(), 1000);
    EXPECT_EQ(result.kind, FrameResult::Kind::Malformed);
    EXPECT_FALSE(result.error.empty());
}

TEST(FrameProtocol, TruncatedPayloadIsMalformed)
{
    // Length says 8 bytes, the stream ends after 3.
    Pipe pipe;
    writeRaw(pipe.writeFd(),
             std::string("\x08\x00\x00\x00", 4) + "abc");
    pipe.closeWrite();
    const auto result = readFrame(pipe.readFd(), 1000);
    EXPECT_EQ(result.kind, FrameResult::Kind::Malformed);
    EXPECT_FALSE(result.error.empty());
}

TEST(FrameProtocol, OversizedLengthFailsFastWithoutAllocating)
{
    // Garbage length bytes (~4 GiB) must be rejected as corruption,
    // not trigger an allocation-and-wait for data that never comes.
    // The classification is Oversized, distinct from Malformed, so an
    // untrusted-peer server can report it with its own error.
    Pipe pipe;
    writeRaw(pipe.writeFd(), std::string("\xff\xff\xff\xff", 4));
    const auto result = readFrame(pipe.readFd(), 1000);
    EXPECT_EQ(result.kind, FrameResult::Kind::Oversized);
    EXPECT_NE(result.error.find("frame length"), std::string::npos);
}

TEST(FrameProtocol, PeerStallingMidFrameIsMalformedNotAHang)
{
    // The write end stays open: without the completion budget this
    // would block forever, which is exactly the hang the watchdog must
    // never inherit from the protocol layer.  Bytes were consumed, so
    // the stall is Malformed, never a Timeout a caller could take for
    // an idle tick.
    Pipe pipe;
    writeRaw(pipe.writeFd(), std::string("\x08\x00\x00\x00", 4) + "ab");
    const auto result = readFrame(pipe.readFd(), 50);
    EXPECT_EQ(result.kind, FrameResult::Kind::Malformed);
    EXPECT_NE(result.error.find("2 of 8 bytes"), std::string::npos)
        << result.error;
}

TEST(WorkerProtocol, GarbageRepliesBecomeWorkerCrashed)
{
    // None of these may hang, throw, or be mistaken for a result.
    std::vector<std::string> garbage_frames = {
        "",                         // empty frame
        "not json at all",          // lexical garbage
        "[1, 2, 3]",                // valid JSON, wrong shape
        "{\"workload\": \"fir\"}",  // object missing result fields
        std::string("\x00\xff junk", 7),  // binary noise
    };
    // A complete reply with one field of the wrong type.
    JobResult result;
    result.workload = "fir";
    result.makespan = 7;
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        writeJobResultFields(w, result);
        w.endObject();
    }
    std::string mistyped = compactJson(out.str());
    const std::string makespan = "\"makespan\": 7";
    const size_t at = mistyped.find(makespan);
    ASSERT_NE(at, std::string::npos) << mistyped;
    garbage_frames.push_back(mistyped.replace(
        at, makespan.size(), "\"makespan\": \"seven\""));

    for (const auto &payload : garbage_frames) {
        const auto decoded = decodeWorkerReply(payload);
        ASSERT_FALSE(decoded.ok()) << "payload: " << payload;
        EXPECT_EQ(decoded.status().code(), ErrorCode::WorkerCrashed);
        EXPECT_NE(decoded.status().message().find(
                      "worker protocol error"),
                  std::string::npos)
            << decoded.status().toString();
    }
}

TEST(WorkerProtocol, EncodedJobCarriesTheSpecInTextForm)
{
    JobSpec spec;
    spec.workload = "fir";
    spec.machine = "vliw2";
    spec.algorithm = *parseAlgorithmSpec("convergent:INITTIME,PLACE");
    JobPolicy policy;
    policy.deadlineMs = 1234;
    const auto plan = mustParse("pass.apply=slow:ms=1");
    policy.faults = &plan;

    BaselineMemo baselines;
    baselines[{"fir", "vliw2"}] = BaselineEntry{Status(), 42};

    const std::string frame =
        encodeWorkerJob(spec, policy, /*retries=*/2, /*die=*/"",
                        &baselines);
    for (const char *needle :
         {"\"workload\": \"fir\"", "\"machine\": \"vliw2\"",
          "\"deadlineMs\": 1234", "\"retries\": 2",
          "\"baselineMakespan\": 42", "INITTIME", "pass.apply"}) {
        EXPECT_NE(frame.find(needle), std::string::npos)
            << "missing " << needle << " in " << frame;
    }
}

TEST(Isolation, ReportBytesIdenticalToInProcessRun)
{
    InterruptGuard guard;
    const auto baseline = runGrid(smallGrid());
    ASSERT_TRUE(baseline.allOk());
    for (const int jobs : {1, 4}) {
        auto grid = smallGrid(jobs);
        grid.isolate = true;
        const auto isolated = runGrid(grid);
        EXPECT_EQ(deterministicJson(isolated),
                  deterministicJson(baseline))
            << "--isolate changed the report at --jobs " << jobs;
    }
    // The largest deadline a request or job frame can carry: the
    // watchdog budget derived from it must not overflow.
    auto grid = smallGrid(1);
    grid.isolate = true;
    grid.deadlineMs = std::numeric_limits<int>::max();
    EXPECT_EQ(deterministicJson(runGrid(grid)),
              deterministicJson(baseline));
}

/** The containment grid: one cell segfaults, one hangs, one OOMs. */
GridSpec
faultyGrid(const FaultPlan &plan, int jobs)
{
    auto grid = smallGrid(jobs);
    grid.isolate = true;
    grid.faults = &plan;
    // The hang is only observable under a deadline: the watchdog
    // budget is derived from it.  (No --mem-limit-mb here: the OOM
    // directive's own allocation cap kills the worker regardless, and
    // an address-space cap would break sanitized healthy cells.)
    grid.deadlineMs = 2000;
    return grid;
}

TEST(Isolation, CrashHangAndOomAreContainedPerCell)
{
    InterruptGuard guard;
    const auto plan =
        mustParse("worker.crash=fail:match=fir/vliw2/uas;"
                  "worker.hang=fail:match=vvmul/vliw2/convergent;"
                  "worker.oom=fail:match=fir/vliw2/convergent");
    const auto report = runGrid(faultyGrid(plan, 4));
    EXPECT_FALSE(report.interrupted);
    EXPECT_EQ(report.summary.total, 4);
    EXPECT_EQ(report.summary.ok, 1);
    EXPECT_EQ(gridExitCode(report, /*keep_going=*/false), 1);

    for (const auto &job : report.results) {
        const std::string key =
            job.workload + "/" + job.machine + "/" + job.algorithm;
        if (key == "fir/vliw2/uas") {
            EXPECT_EQ(job.outcome, JobOutcome::Failed);
            EXPECT_EQ(job.error, ErrorCode::WorkerCrashed);
            EXPECT_EQ(job.workerSignal, SIGSEGV);
            EXPECT_NE(job.diagnostic.find("worker killed by SIGSEGV"),
                      std::string::npos)
                << job.diagnostic;
        } else if (key == "vvmul/vliw2/convergent") {
            EXPECT_EQ(job.outcome, JobOutcome::Timeout);
            EXPECT_EQ(job.error, ErrorCode::WorkerKilled);
            EXPECT_EQ(job.workerSignal, SIGKILL);
            EXPECT_NE(job.diagnostic.find("watchdog"),
                      std::string::npos)
                << job.diagnostic;
        } else if (key == "fir/vliw2/convergent") {
            EXPECT_EQ(job.outcome, JobOutcome::Failed);
            EXPECT_EQ(job.error, ErrorCode::WorkerCrashed);
            EXPECT_EQ(job.workerSignal, SIGKILL);
            EXPECT_NE(job.diagnostic.find("worker killed by SIGKILL"),
                      std::string::npos)
                << job.diagnostic;
        } else {
            EXPECT_EQ(key, "vvmul/vliw2/uas");
            EXPECT_TRUE(job.ok()) << job.diagnostic;
        }
    }
}

TEST(Isolation, DeathOutcomesAreByteIdenticalAcrossThreadCounts)
{
    InterruptGuard guard;
    const auto plan =
        mustParse("worker.crash=fail:match=fir/vliw2/uas;"
                  "worker.hang=fail:match=vvmul/vliw2/convergent");
    const auto serial = runGrid(faultyGrid(plan, 1));
    const auto parallel = runGrid(faultyGrid(plan, 4));
    EXPECT_FALSE(serial.allOk());
    EXPECT_EQ(deterministicJson(serial), deterministicJson(parallel));
}

TEST(Isolation, TransientCrashIsHealedByRespawnAndRetry)
{
    InterruptGuard guard;
    // The worker dies on the first dispatch only; the retry respawns
    // a worker, re-dispatches, and the job succeeds on attempt 2.
    const auto plan =
        mustParse("worker.crash=fail:match=fir/vliw2/uas:nth=1");
    auto grid = smallGrid(2);
    grid.isolate = true;
    grid.faults = &plan;
    grid.retries = 1;
    const auto report = runGrid(grid);
    EXPECT_TRUE(report.allOk());
    EXPECT_EQ(report.summary.retried, 1);
    for (const auto &job : report.results) {
        if (job.workload == "fir" && job.algorithm == "uas") {
            EXPECT_TRUE(job.retriedThenOk());
            EXPECT_EQ(job.attempts, 2);
        } else {
            EXPECT_EQ(job.attempts, 1);
        }
    }
}

TEST(Isolation, PersistentCrashRecordsEveryAttemptAndBackoff)
{
    InterruptGuard guard;
    const auto plan =
        mustParse("worker.crash=fail:match=fir/vliw2/uas");
    auto grid = smallGrid(2);
    grid.isolate = true;
    grid.faults = &plan;
    grid.retries = 2;
    const auto report = runGrid(grid);
    for (const auto &job : report.results) {
        if (job.workload != "fir" || job.algorithm != "uas")
            continue;
        EXPECT_EQ(job.outcome, JobOutcome::Failed);
        EXPECT_EQ(job.error, ErrorCode::WorkerCrashed);
        EXPECT_EQ(job.attempts, 3);
        // Satellite contract: the delays slept between attempts are
        // recorded in the terminal diagnostic, deterministically.
        const std::string note =
            " [retry backoff ms: " +
            std::to_string(retryBackoffMs("fir/vliw2/uas", 2)) + " " +
            std::to_string(retryBackoffMs("fir/vliw2/uas", 3)) + "]";
        EXPECT_NE(job.diagnostic.find(note), std::string::npos)
            << job.diagnostic;
    }
}

TEST(Isolation, KilledAndResumedRunMatchesUninterruptedBytes)
{
    InterruptGuard guard;
    const std::string path = tempPath("journal.jsonl");

    auto plain = smallGrid();
    plain.isolate = true;
    const auto baseline = runGrid(plain);
    ASSERT_TRUE(baseline.allOk());

    // The injected interrupt fires *inside the worker process*; the
    // child reports `interrupted` and the parent must drain the grid
    // exactly as an in-process run would.
    const auto plan =
        mustParse("runner.interrupt=fail:match=fir/vliw2/convergent");
    auto interrupted = smallGrid(4);
    interrupted.isolate = true;
    interrupted.journalPath = path;
    interrupted.faults = &plan;
    const auto partial = runGrid(interrupted);
    EXPECT_TRUE(partial.interrupted);
    EXPECT_GT(partial.summary.interrupted, 0);
    EXPECT_LT(partial.summary.ok, partial.summary.total);

    clearInterrupt();
    auto resumed_grid = smallGrid();
    resumed_grid.isolate = true;
    resumed_grid.journalPath = path;
    resumed_grid.resume = true;
    const auto resumed = runGrid(resumed_grid);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.replayed, partial.summary.ok);
    EXPECT_EQ(deterministicJson(resumed), deterministicJson(baseline));
}

TEST(Isolation, WorkerDeathRecordsJournalAndReplayByteIdentically)
{
    InterruptGuard guard;
    const std::string path = tempPath("journal.jsonl");
    const auto plan =
        mustParse("worker.crash=fail:match=fir/vliw2/uas");
    auto grid = faultyGrid(plan, 2);
    grid.journalPath = path;
    const auto report = runGrid(grid);
    EXPECT_FALSE(report.allOk());

    // The crashed cell's outcome -- signal and all -- round-trips
    // through the journal, so a resume replays it instead of
    // re-running the job.
    auto resumed_grid = faultyGrid(plan, 2);
    resumed_grid.journalPath = path;
    resumed_grid.resume = true;
    const auto resumed = runGrid(resumed_grid);
    EXPECT_EQ(resumed.replayed, report.summary.total);
    EXPECT_EQ(deterministicJson(resumed), deterministicJson(report));
    for (const auto &job : resumed.results) {
        if (job.workload == "fir" && job.algorithm == "uas") {
            EXPECT_EQ(job.workerSignal, SIGSEGV);
        }
    }
}

TEST(Backoff, DeterministicJitterWithinBounds)
{
    // Pure function of (key, attempt): same inputs, same delay.
    EXPECT_EQ(retryBackoffMs("fir/vliw2/uas", 2),
              retryBackoffMs("fir/vliw2/uas", 2));
    // Jittered exponential: attempt k draws from [base/2, 3*base/2)
    // with base = min(10 * 2^(k-2), 200).
    for (int attempt = 2; attempt <= 12; ++attempt) {
        const int base =
            std::min(10 << std::min(attempt - 2, 5), 200);
        const int ms = retryBackoffMs("fir/vliw2/uas", attempt);
        EXPECT_GE(ms, base / 2) << "attempt " << attempt;
        EXPECT_LE(ms, base + base / 2) << "attempt " << attempt;
    }
}

} // namespace
} // namespace csched
