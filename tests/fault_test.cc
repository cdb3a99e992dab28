/**
 * @file
 * Tests for the fault-tolerance stack: the structured error model, the
 * deterministic fault-injection harness, per-job deadlines/retries,
 * checker rejections surfacing as CheckFailed (not aborts), partial
 * -report salvage, and the thread pool's exception barrier.
 *
 * The determinism tests here are the robustness half of the runner's
 * core guarantee: an *injected* grid must still produce byte-identical
 * reports -- outcomes, attempt counts, and diagnostics included -- at
 * any --jobs value.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <stdexcept>

#include "eval/experiment.hh"
#include "machine/machine_spec.hh"
#include "runner/driver.hh"
#include "runner/grid_runner.hh"
#include "runner/json_report.hh"
#include "runner/thread_pool.hh"
#include "sched/schedule_checker.hh"
#include "support/cancel.hh"
#include "support/fault_injection.hh"
#include "workloads/workloads.hh"

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

JobSpec
vvmulJob(const std::string &algorithm = "convergent",
         const std::string &machine = "vliw4")
{
    return JobSpec{"vvmul", machine, *parseAlgorithmSpec(algorithm),
                   true};
}

TEST(FaultPlan, ParsesRulesAndOptions)
{
    const auto plan = mustParse(
        "runner.job.start=fail:match=uas:nth=2; pass.apply=slow:ms=5;"
        "checker.verify=timeout:prob=0.5:seed=9;"
        "uas.cycle=fail:code=check-failed");
    ASSERT_EQ(plan.rules().size(), 4u);

    const auto &start = plan.rules()[0];
    EXPECT_EQ(start.point, "runner.job.start");
    EXPECT_EQ(start.action, FaultAction::Fail);
    EXPECT_EQ(start.code, ErrorCode::Injected);
    EXPECT_EQ(start.match, "uas");
    EXPECT_EQ(start.nth, 2);

    const auto &slow = plan.rules()[1];
    EXPECT_EQ(slow.action, FaultAction::Slow);
    EXPECT_EQ(slow.slowMs, 5);

    const auto &timeout = plan.rules()[2];
    EXPECT_EQ(timeout.action, FaultAction::Timeout);
    EXPECT_DOUBLE_EQ(timeout.probability, 0.5);
    EXPECT_EQ(timeout.seed, 9u);

    EXPECT_EQ(plan.rules()[3].code, ErrorCode::CheckFailed);
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    for (const char *bad :
         {"no-equals", "=fail", "p=explode", "p=fail:nth=0",
          "p=fail:prob=1.5", "p=fail:code=nonesuch", "p=fail:bogus=1",
          "p=fail:ms",
          // Values are parsed whole and strictly: no trailing junk,
          // no overflow, no NaN slipping past the range check.
          "p=fail:nth=2abc", "p=fail:nth=99999999999", "p=fail:prob=nan",
          "p=fail:prob=0.5x", "p=fail:seed=-1", "p=fail:seed=1e3",
          "p=slow:ms=5ms"}) {
        std::string error;
        EXPECT_FALSE(FaultPlan::parse(bad, &error).has_value()) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

/** Which of the first @p hits of @p point throw under @p plan/@p key. */
std::vector<int>
firingHits(const FaultPlan &plan, const std::string &key,
           const char *point, int hits)
{
    FaultScope scope(&plan, key);
    std::vector<int> fired;
    for (int k = 1; k <= hits; ++k) {
        try {
            scope.hit(point);
        } catch (const StatusError &) {
            fired.push_back(k);
        }
    }
    return fired;
}

TEST(FaultScope, ProbabilisticRulesAreDeterministic)
{
    const auto plan = mustParse("pass.apply=fail:prob=0.4:seed=11");
    const auto a = firingHits(plan, "fir/vliw4/uas", "pass.apply", 64);
    const auto b = firingHits(plan, "fir/vliw4/uas", "pass.apply", 64);
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.empty());
    EXPECT_LT(a.size(), 64u);

    // A different scope key draws a different (but equally
    // deterministic) firing pattern.
    const auto c = firingHits(plan, "fir/vliw4/pcc", "pass.apply", 64);
    EXPECT_EQ(c, firingHits(plan, "fir/vliw4/pcc", "pass.apply", 64));
    EXPECT_NE(a, c);
}

TEST(FaultScope, MatchFiltersByScopeKey)
{
    const auto plan = mustParse("pass.apply=fail:match=uas");
    EXPECT_EQ(firingHits(plan, "fir/vliw4/uas", "pass.apply", 3).size(),
              3u);
    EXPECT_TRUE(firingHits(plan, "fir/vliw4/pcc", "pass.apply", 3)
                    .empty());
}

TEST(FaultScope, NthTargetsOneHitOnly)
{
    const auto plan = mustParse("pass.apply=fail:nth=2");
    const auto fired =
        firingHits(plan, "fir/vliw4/uas", "pass.apply", 5);
    EXPECT_EQ(fired, std::vector<int>{2});
}

TEST(CancelToken, DeadlineSurfacesAsTimeoutStatus)
{
    CancelToken token;
    token.armDeadline(1);
    while (!token.expired()) {
    }
    ScopedCancelToken guard(&token);
    try {
        pollCancellation("uas.cycle");
        FAIL() << "expected a StatusError";
    } catch (const StatusError &error) {
        EXPECT_EQ(error.status.code(), ErrorCode::Timeout);
        EXPECT_NE(error.status.message().find("uas.cycle"),
                  std::string::npos);
    }
}

TEST(RunJob, InjectedFaultBecomesFailedOutcome)
{
    const auto plan = mustParse("pass.apply=fail");
    JobPolicy policy;
    policy.faults = &plan;
    const auto result = runJob(vvmulJob(), policy);
    EXPECT_EQ(result.outcome, JobOutcome::Failed);
    EXPECT_EQ(result.error, ErrorCode::Injected);
    EXPECT_EQ(result.attempts, 1);
    EXPECT_NE(result.diagnostic.find("pass.apply"), std::string::npos);
    EXPECT_FALSE(result.ok());
}

TEST(RunJob, TransientFaultIsHealedByRetry)
{
    const auto plan = mustParse("pass.apply=fail:nth=1");
    JobPolicy policy;
    policy.faults = &plan;
    policy.retries = 2;
    const auto result = runJob(vvmulJob(), policy);
    EXPECT_EQ(result.outcome, JobOutcome::Ok);
    EXPECT_EQ(result.attempts, 2);
    EXPECT_TRUE(result.retriedThenOk());
    EXPECT_TRUE(result.diagnostic.empty());
    EXPECT_GT(result.makespan, 0);

    // The largest budget a job frame can carry: counting the first
    // attempt on top of it must not overflow int.
    policy.retries = std::numeric_limits<int>::max();
    EXPECT_EQ(runJob(vvmulJob(), policy).attempts, 2);
}

TEST(RunJob, InjectedTimeoutBecomesTimeoutOutcome)
{
    const auto plan = mustParse("runner.job.start=timeout");
    JobPolicy policy;
    policy.faults = &plan;
    const auto result = runJob(vvmulJob(), policy);
    EXPECT_EQ(result.outcome, JobOutcome::Timeout);
    EXPECT_EQ(result.error, ErrorCode::Timeout);
}

TEST(RunJob, InvalidSpecIsNeverRetried)
{
    JobPolicy policy;
    policy.retries = 3;

    JobSpec bad_machine = vvmulJob();
    bad_machine.machine = "vliw0";
    auto result = runJob(bad_machine, policy);
    EXPECT_EQ(result.outcome, JobOutcome::Failed);
    EXPECT_EQ(result.error, ErrorCode::InvalidSpec);
    EXPECT_EQ(result.attempts, 1);

    JobSpec bad_workload = vvmulJob();
    bad_workload.workload = "nonesuch";
    result = runJob(bad_workload, policy);
    EXPECT_EQ(result.error, ErrorCode::InvalidSpec);
    EXPECT_EQ(result.attempts, 1);
    EXPECT_NE(result.diagnostic.find("nonesuch"), std::string::npos);
}

TEST(RunJob, CheckerVerdictSurfacesAsCheckFailedOutcome)
{
    const auto plan =
        mustParse("checker.verify=fail:code=check-failed");
    JobPolicy policy;
    policy.faults = &plan;
    const auto result = runJob(vvmulJob(), policy);
    EXPECT_EQ(result.outcome, JobOutcome::Failed);
    EXPECT_EQ(result.error, ErrorCode::CheckFailed);
}

TEST(RunJob, FailedBaselineFailsDependentsWithDiagnosis)
{
    const auto plan =
        mustParse("runner.job.start=fail:match=single-cluster");
    GridSpec grid;
    grid.workloads = {"vvmul"};
    grid.machines = {"vliw4"};
    grid.algorithms = {*parseAlgorithmSpec("convergent")};
    grid.faults = &plan;
    const auto report = runGrid(grid);
    ASSERT_EQ(report.results.size(), 1u);
    EXPECT_EQ(report.results[0].outcome, JobOutcome::Failed);
    EXPECT_NE(report.results[0].diagnostic.find("single-cluster"),
              std::string::npos);
}

/**
 * Test-local algorithm that replays a canned (corrupted) schedule, so
 * checker negative paths can be driven through the exact code path
 * jobs use -- and must come back as CheckFailed values, not aborts.
 */
class FixedScheduleAlgorithm : public SchedulingAlgorithm
{
  public:
    explicit FixedScheduleAlgorithm(Schedule schedule)
        : schedule_(std::move(schedule))
    {
    }

    std::string name() const override { return "Fixed"; }

    ScheduleResult run(const DependenceGraph &) const override
    {
        return ScheduleResult{schedule_, {}};
    }

  private:
    Schedule schedule_;
};

/** A legal schedule of @p workload to corrupt, plus its context. */
struct Scheduled
{
    const MachineModel *machine;
    DependenceGraph graph;
    Schedule schedule;
};

Scheduled
scheduleFixture(const MachineModel &machine)
{
    const WorkloadSpec *spec = tryFindWorkload("vvmul");
    EXPECT_NE(spec, nullptr);
    DependenceGraph graph = spec->build(machine.numClusters(),
                                        machine.numClusters());
    const auto algorithm =
        makeAlgorithm(*parseAlgorithmSpec("uas"), machine);
    Schedule schedule = algorithm->schedule(graph);
    EXPECT_TRUE(checkSchedule(graph, machine, schedule).ok());
    return Scheduled{&machine, std::move(graph), std::move(schedule)};
}

/** Copy @p base, letting @p mutate rewrite each placement. */
template <typename Mutate>
Schedule
rebuilt(const Schedule &base, Mutate mutate, bool keep_comms = true)
{
    Schedule copy(base.numInstructions(), base.numClusters());
    for (InstrId id = 0; id < base.numInstructions(); ++id) {
        Placement p = base.at(id);
        mutate(id, p);
        copy.place(id, p);
    }
    if (keep_comms)
        for (const auto &event : base.comms())
            copy.addComm(event);
    return copy;
}

TEST(CheckerNegativePaths, DependenceViolationIsCheckFailed)
{
    const auto machine = parseMachineSpec("vliw4", nullptr);
    auto fixture = scheduleFixture(*machine);

    // Pull one data consumer to cycle 0, before its producer's finish.
    InstrId victim = kNoInstr;
    for (const auto &edge : fixture.graph.edges()) {
        if (edge.kind == DepKind::Data &&
            fixture.schedule.at(edge.dst).cycle > 0) {
            victim = edge.dst;
            break;
        }
    }
    ASSERT_NE(victim, kNoInstr);
    const auto corrupt =
        rebuilt(fixture.schedule, [&](InstrId id, Placement &p) {
            if (id == victim) {
                p.finish -= p.cycle;
                p.cycle = 0;
            }
        });

    const auto run = tryRunAndCheck(FixedScheduleAlgorithm(corrupt),
                                    fixture.graph, *machine);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), ErrorCode::CheckFailed);
    EXPECT_NE(run.status().message().find("edge"), std::string::npos);
}

TEST(CheckerNegativePaths, FuOversubscriptionIsCheckFailed)
{
    const auto machine = parseMachineSpec("vliw4", nullptr);
    auto fixture = scheduleFixture(*machine);
    ASSERT_GE(fixture.schedule.numInstructions(), 2);

    // Give instruction 1 the same (cluster, fu, cycle) as instruction 0.
    const Placement first = fixture.schedule.at(0);
    const auto corrupt =
        rebuilt(fixture.schedule, [&](InstrId id, Placement &p) {
            if (id == 1) {
                const int latency = p.finish - p.cycle;
                p = first;
                p.finish = first.cycle + latency;
            }
        });

    const auto run = tryRunAndCheck(FixedScheduleAlgorithm(corrupt),
                                    fixture.graph, *machine);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), ErrorCode::CheckFailed);
    EXPECT_NE(run.status().message().find("conflict"),
              std::string::npos);
}

TEST(CheckerNegativePaths, MissingCommunicationIsCheckFailed)
{
    const auto machine = parseMachineSpec("raw2x2", nullptr);
    auto fixture = scheduleFixture(*machine);
    // The legal schedule must actually cross clusters for the dropped
    // comm events to matter.
    ASSERT_FALSE(fixture.schedule.comms().empty());

    const auto corrupt = rebuilt(
        fixture.schedule, [](InstrId, Placement &) {},
        /*keep_comms=*/false);

    const auto run = tryRunAndCheck(FixedScheduleAlgorithm(corrupt),
                                    fixture.graph, *machine);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), ErrorCode::CheckFailed);
    EXPECT_NE(run.status().message().find("communication"),
              std::string::npos);
}

GridSpec
injectedGrid()
{
    GridSpec grid;
    grid.workloads = {"vvmul", "fir", "jacobi"};
    grid.machines = {"vliw4", "raw2x2"};
    grid.algorithms = {*parseAlgorithmSpec("convergent"),
                       *parseAlgorithmSpec("uas")};
    grid.retries = 1;
    return grid;
}

TEST(InjectedGrid, SalvagesHealthyCellsAndMarksFailedOnes)
{
    const auto plan = mustParse(
        "runner.job.start=fail:match=fir/vliw4/uas;"
        "pass.apply=timeout:match=jacobi/raw2x2/convergent:nth=2");
    auto grid = injectedGrid();
    grid.retries = 0;
    grid.faults = &plan;
    const auto report = runGrid(grid);
    const auto clean = runGrid(injectedGrid());

    ASSERT_EQ(report.results.size(), clean.results.size());
    EXPECT_EQ(report.summary.total, 12);
    EXPECT_EQ(report.summary.ok, 10);
    EXPECT_EQ(report.summary.failed, 1);
    EXPECT_EQ(report.summary.timeout, 1);
    EXPECT_FALSE(report.allOk());
    EXPECT_EQ(gridExitCode(report, false), 1);
    EXPECT_EQ(gridExitCode(report, true), 0);

    for (size_t k = 0; k < report.results.size(); ++k) {
        const auto &job = report.results[k];
        const std::string key =
            job.workload + "/" + job.machine + "/" + job.algorithm;
        if (key == "fir/vliw4/uas") {
            EXPECT_EQ(job.outcome, JobOutcome::Failed);
        } else if (key == "jacobi/raw2x2/convergent") {
            EXPECT_EQ(job.outcome, JobOutcome::Timeout);
        } else {
            // Salvaged cells are exactly what an uninjected run gives.
            EXPECT_TRUE(job.ok()) << key << ": " << job.diagnostic;
            EXPECT_EQ(job.makespan, clean.results[k].makespan) << key;
            EXPECT_EQ(job.assignment, clean.results[k].assignment);
            EXPECT_EQ(job.speedup, clean.results[k].speedup);
        }
    }
}

TEST(InjectedGrid, ReportIsByteIdenticalAcrossThreadCounts)
{
    // The uas.cycle rule spares vliw4, so jacobi/vliw4/uas (killed on
    // its first attempt only) deterministically recovers by retry.
    const auto plan = mustParse(
        "pass.apply=fail:prob=0.3:seed=7;"
        "runner.job.start=fail:match=jacobi/vliw4/uas:nth=1;"
        "uas.cycle=timeout:prob=0.2:seed=3:match=raw2x2");
    auto serial = injectedGrid();
    serial.faults = &plan;
    serial.jobs = 1;
    auto parallel = injectedGrid();
    parallel.faults = &plan;
    parallel.jobs = 8;

    const auto a = runGrid(serial);
    const auto b = runGrid(parallel);
    EXPECT_FALSE(a.allOk());  // the injection must actually bite
    EXPECT_GT(a.summary.retried, 0);

    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t k = 0; k < a.results.size(); ++k) {
        EXPECT_EQ(a.results[k].outcome, b.results[k].outcome) << k;
        EXPECT_EQ(a.results[k].attempts, b.results[k].attempts) << k;
        EXPECT_EQ(a.results[k].diagnostic, b.results[k].diagnostic);
    }

    ReportOptions options;
    options.timings = false;
    EXPECT_EQ(gridReportToJson(a, options),
              gridReportToJson(b, options));
}

TEST(JsonReportV2, FailedCellsCarryDiagnosisOnly)
{
    const auto plan = mustParse("pass.apply=fail:match=convergent");
    GridSpec grid;
    grid.workloads = {"vvmul"};
    grid.machines = {"vliw4"};
    grid.algorithms = {*parseAlgorithmSpec("convergent"),
                       *parseAlgorithmSpec("uas")};
    grid.faults = &plan;
    const auto report = runGrid(grid);

    const auto json = gridReportToJson(report);
    EXPECT_NE(json.find("\"schema\": \"csched-grid-report-v2\""),
              std::string::npos);
    EXPECT_NE(json.find("\"summary\""), std::string::npos);
    EXPECT_NE(json.find("\"outcome\": \"failed\""), std::string::npos);
    EXPECT_NE(json.find("\"error\": \"injected\""), std::string::npos);

    // The failed convergent cell must not pretend to have results.
    const auto failed_pos = json.find("\"outcome\": \"failed\"");
    const auto ok_pos = json.find("\"outcome\": \"ok\"");
    ASSERT_NE(failed_pos, std::string::npos);
    ASSERT_NE(ok_pos, std::string::npos);
    const auto failed_cell = json.substr(failed_pos, ok_pos - failed_pos);
    EXPECT_EQ(failed_cell.find("makespan"), std::string::npos);
    EXPECT_EQ(failed_cell.find("speedup"), std::string::npos);
}

TEST(FailureSummary, ListsFailuresAndRecoveries)
{
    const auto plan = mustParse(
        "runner.job.start=fail:match=uas;"
        "pass.apply=fail:match=convergent:nth=1");
    GridSpec grid;
    grid.workloads = {"vvmul"};
    grid.machines = {"vliw4"};
    grid.algorithms = {*parseAlgorithmSpec("convergent"),
                       *parseAlgorithmSpec("uas")};
    grid.retries = 1;
    grid.faults = &plan;
    const auto report = runGrid(grid);

    std::ostringstream out;
    printFailureSummary(out, report);
    const auto text = out.str();
    EXPECT_NE(text.find("failed  vvmul/vliw4/uas"), std::string::npos)
        << text;
    EXPECT_NE(text.find("2 attempts"), std::string::npos) << text;
    EXPECT_NE(text.find("1/2 jobs ok, 1 failed"), std::string::npos)
        << text;
    EXPECT_NE(text.find("1 recovered by retry"), std::string::npos)
        << text;

    // A fully clean report prints nothing.
    std::ostringstream quiet;
    GridSpec clean_grid = grid;
    clean_grid.retries = 0;
    clean_grid.faults = nullptr;
    printFailureSummary(quiet, runGrid(clean_grid));
    EXPECT_TRUE(quiet.str().empty());
}

/**
 * Regression for the workerLoop exception barrier: before it, a
 * throwing task called std::terminate (or, had the call survived,
 * leaked active_ and deadlocked wait() forever).
 */
TEST(ThreadPool, SurvivesThrowingTasks)
{
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    for (int k = 0; k < 32; ++k)
        pool.submit([&completed, k] {
            if (k % 2 == 0)
                throw std::runtime_error("synthetic task failure");
            ++completed;
        });
    pool.wait();  // deadlocks here without the RAII active-count guard
    EXPECT_EQ(completed.load(), 16);

    // The pool must remain fully usable afterwards.
    pool.submit([&completed] { ++completed; });
    pool.wait();
    EXPECT_EQ(completed.load(), 17);
}

} // namespace
} // namespace csched
