/**
 * @file
 * End-to-end tests for the convergent scheduler driver: sequences,
 * extraction, correctness clamping, convergence tracing, determinism.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "convergent/convergent_scheduler.hh"
#include "convergent/pass_registry.hh"
#include "convergent/preference_matrix.hh"
#include "convergent/sequences.hh"
#include "ir/graph_algorithms.hh"
#include "ir/graph_builder.hh"
#include "machine/clustered_vliw.hh"
#include "machine/raw_machine.hh"
#include "machine/single_cluster.hh"
#include "sched/schedule_checker.hh"
#include "support/fault_injection.hh"
#include "support/rng.hh"
#include "support/status.hh"
#include "workloads/workloads.hh"

namespace csched {
namespace {

DependenceGraph
smallKernel(int banks)
{
    return makeJacobi(banks, banks);
}

TEST(Sequences, MatchTableOne)
{
    EXPECT_EQ(rawPassSequence(),
              "INITTIME,PLACEPROP,LOAD,PLACE,PATH,PATHPROP,LEVEL,"
              "PATHPROP,COMM,PATHPROP,EMPHCP");
    EXPECT_EQ(vliwPassSequence(),
              "INITTIME,NOISE,FIRST,PATH,COMM,PLACE,PLACEPROP,COMM,"
              "EMPHCP");
}

TEST(ConvergentScheduler, PassNamesFollowSequence)
{
    const ClusteredVliwMachine vliw(4);
    const ConvergentScheduler scheduler(vliw, "INITTIME,PLACE,COMM");
    const auto names = scheduler.passNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "INITTIME");
    EXPECT_EQ(names[2], "COMM");
}

TEST(ConvergentScheduler, ProducesLegalScheduleOnVliw)
{
    const ClusteredVliwMachine vliw(4);
    const auto graph = smallKernel(4);
    const auto scheduler = ConvergentScheduler::forMachine(vliw);
    const auto result = scheduler.schedule(graph);
    const auto check = checkSchedule(graph, vliw, result.schedule);
    EXPECT_TRUE(check.ok()) << check.message();
}

TEST(ConvergentScheduler, ProducesLegalScheduleOnRaw)
{
    const auto raw = RawMachine::withTiles(4);
    const auto graph = smallKernel(4);
    const auto scheduler = ConvergentScheduler::forMachine(raw);
    const auto result = scheduler.schedule(graph);
    const auto check = checkSchedule(graph, raw, result.schedule);
    EXPECT_TRUE(check.ok()) << check.message();
}

TEST(ConvergentScheduler, PreplacedInstructionsClampedToHomes)
{
    const ClusteredVliwMachine vliw(4);
    const auto graph = smallKernel(4);
    const auto scheduler = ConvergentScheduler::forMachine(vliw);
    const auto result = scheduler.schedule(graph);
    for (InstrId id = 0; id < graph.numInstructions(); ++id) {
        const auto &instr = graph.instr(id);
        if (instr.preplaced()) {
            EXPECT_EQ(result.assignment[id], instr.homeCluster);
        }
    }
}

TEST(ConvergentScheduler, TraceCoversEveryPass)
{
    const ClusteredVliwMachine vliw(4);
    const auto graph = smallKernel(4);
    const auto scheduler = ConvergentScheduler::forMachine(vliw);
    const auto result = scheduler.schedule(graph);
    ASSERT_EQ(result.trace.size(), 9u);  // Table 1(b) length
    for (const auto &step : result.trace) {
        EXPECT_GE(step.fractionChanged, 0.0);
        EXPECT_LE(step.fractionChanged, 1.0);
    }
    EXPECT_EQ(result.trace.front().pass, "INITTIME");
    EXPECT_TRUE(result.trace.front().temporalOnly);
    EXPECT_EQ(result.trace.back().pass, "EMPHCP");
}

TEST(ConvergentScheduler, TemporalOnlyPassesChangeNoClusters)
{
    const ClusteredVliwMachine vliw(4);
    const auto graph = smallKernel(4);
    const auto scheduler = ConvergentScheduler::forMachine(vliw);
    const auto result = scheduler.schedule(graph);
    for (const auto &step : result.trace) {
        if (step.temporalOnly) {
            EXPECT_DOUBLE_EQ(step.fractionChanged, 0.0);
        }
    }
}

TEST(ConvergentScheduler, DeterministicAcrossRuns)
{
    const ClusteredVliwMachine vliw(4);
    const auto graph = smallKernel(4);
    const auto scheduler = ConvergentScheduler::forMachine(vliw);
    const auto first = scheduler.schedule(graph);
    const auto second = scheduler.schedule(graph);
    EXPECT_EQ(first.assignment, second.assignment);
    EXPECT_EQ(first.schedule.makespan(), second.schedule.makespan());
}

TEST(ConvergentScheduler, NoiseSeedChangesVliwOutcome)
{
    const ClusteredVliwMachine vliw(4);
    const auto graph = smallKernel(4);
    PassParams a = vliwPassParams();
    PassParams b = vliwPassParams();
    b.noiseSeed = a.noiseSeed + 1;
    const ConvergentScheduler first(vliw, vliwPassSequence(), a);
    const ConvergentScheduler second(vliw, vliwPassSequence(), b);
    // Different noise, (almost surely) different assignment somewhere.
    EXPECT_NE(first.schedule(graph).assignment,
              second.schedule(graph).assignment);
}

TEST(ConvergentScheduler, SingleClusterMachineTrivialAssignment)
{
    const ClusteredVliwMachine vliw(1);
    GraphBuilder builder;
    const InstrId a = builder.op(Opcode::IAdd);
    builder.op(Opcode::IAdd, {a});
    const auto graph = builder.build();
    const auto scheduler = ConvergentScheduler::forMachine(vliw);
    const auto result = scheduler.schedule(graph);
    EXPECT_EQ(result.assignment, (std::vector<int>{0, 0}));
}

TEST(ConvergentScheduler, WorksOnReceiveOpMachines)
{
    // The Figure-1 style abstract machine: receives occupy consumer
    // FUs.  forMachine() selects the VLIW sequence for it.
    const UniformMachine machine(3, 1, 1);
    const auto graph = smallKernel(3);
    const auto scheduler = ConvergentScheduler::forMachine(machine);
    const auto result = scheduler.schedule(graph);
    const auto check = checkSchedule(graph, machine, result.schedule);
    EXPECT_TRUE(check.ok()) << check.message();
    EXPECT_GE(result.schedule.makespan(),
              graph.criticalPathLength());
}

TEST(ConvergentScheduler, CustomSequenceRuns)
{
    const ClusteredVliwMachine vliw(2);
    const auto graph = smallKernel(2);
    const ConvergentScheduler scheduler(vliw, "INITTIME,PLACE,PLACEPROP");
    const auto result = scheduler.schedule(graph);
    const auto check = checkSchedule(graph, vliw, result.schedule);
    EXPECT_TRUE(check.ok()) << check.message();
}

TEST(ConvergentScheduler, ThrowingPassIsSkippedAndRolledBack)
{
    const ClusteredVliwMachine vliw(4);
    const auto graph = smallKernel(4);
    const auto scheduler = ConvergentScheduler::forMachine(vliw);

    // The third pass of the VLIW sequence (FIRST) throws mid-run; the
    // scheduler must roll the preference matrix back to the pre-pass
    // snapshot, mark the step skipped, and finish with the remaining
    // passes.
    std::string error;
    const auto plan = FaultPlan::parse("pass.body=fail:nth=3", &error);
    ASSERT_TRUE(plan.has_value()) << error;
    FaultScope faults(&*plan, "degradation-test");
    ScopedFaultScope fault_guard(&faults);

    const auto result = scheduler.schedule(graph);
    const auto check = checkSchedule(graph, vliw, result.schedule);
    EXPECT_TRUE(check.ok()) << check.message();

    ASSERT_EQ(result.trace.size(), 9u);
    for (size_t k = 0; k < result.trace.size(); ++k)
        EXPECT_EQ(result.trace[k].skipped, k == 2) << "pass " << k;
    EXPECT_EQ(result.trace[2].pass, "FIRST");
    // Rolled back means *no* preference movement is attributed to the
    // skipped pass.
    EXPECT_DOUBLE_EQ(result.trace[2].fractionChanged, 0.0);
}

TEST(ConvergentScheduler, RollbackAfterWideningRestoresTheNoPassResult)
{
    // PATHPROP blends rows into their neighbours, widening windows and
    // moving rows in the matrix arena.  A fault after its body must
    // roll the matrix back to exactly the state before the pass: the
    // run then equals the same sequence without that PATHPROP.
    const RawMachine raw(4, 4);
    const auto graph = makeMxm(8, 16);
    const PassParams params = rawPassParams();
    const std::string prefix = "INITTIME,PLACEPROP,LOAD,PLACE,PATH";
    const std::string suffix = "LEVEL,COMM,EMPHCP";

    // The fixture is only meaningful if PATHPROP does widen rows here.
    PreferenceMatrix weights(graph.numInstructions(),
                             graph.criticalPathLength(), raw.numClusters());
    Rng rng(params.noiseSeed);
    PassContext ctx{graph, raw, weights, params, rng};
    for (const auto &pass : parsePassSequence(prefix))
        pass->run(ctx);
    std::vector<int> width(graph.numInstructions());
    const PreferenceMatrix &cw = weights;
    for (InstrId i = 0; i < graph.numInstructions(); ++i)
        width[i] = cw.row(i).windowHi() - cw.row(i).windowLo();
    makePassByName("PATHPROP")->run(ctx);
    int widened = 0;
    for (InstrId i = 0; i < graph.numInstructions(); ++i)
        widened += cw.row(i).windowHi() - cw.row(i).windowLo() > width[i];
    ASSERT_GT(widened, 0);

    const ConvergentScheduler without(raw, prefix + "," + suffix, params);
    const auto expected = without.schedule(graph);

    const ConvergentScheduler with(raw, prefix + ",PATHPROP," + suffix,
                                   params);
    std::string error;
    const auto plan = FaultPlan::parse("pass.body=fail:nth=6", &error);
    ASSERT_TRUE(plan.has_value()) << error;
    FaultScope faults(&*plan, "rollback-test");
    ScopedFaultScope fault_guard(&faults);
    const auto result = with.schedule(graph);

    ASSERT_EQ(result.trace.size(), 9u);
    EXPECT_EQ(result.trace[5].pass, "PATHPROP");
    EXPECT_TRUE(result.trace[5].skipped);
    EXPECT_EQ(result.assignment, expected.assignment);
    EXPECT_EQ(result.preferredTime, expected.preferredTime);
    EXPECT_EQ(result.schedule.makespan(), expected.schedule.makespan());
    for (InstrId i = 0; i < graph.numInstructions(); ++i)
        EXPECT_EQ(result.schedule.cycleOf(i), expected.schedule.cycleOf(i));
}

TEST(ConvergentScheduler, SkippedPassLeavesNoTraceByDefault)
{
    // Without a fault, no step is marked skipped (the report layer
    // relies on this: the "skipped" key is emitted only when true, so
    // default report bytes are unchanged).
    const ClusteredVliwMachine vliw(4);
    const auto graph = smallKernel(4);
    const auto scheduler = ConvergentScheduler::forMachine(vliw);
    const auto result = scheduler.schedule(graph);
    for (const auto &step : result.trace)
        EXPECT_FALSE(step.skipped) << step.pass;
}

TEST(ConvergentScheduler, CancellationIsNotSwallowedByDegradation)
{
    // Pass-level degradation absorbs pass *bugs*, never cooperative
    // cancellation: a deadline expiry inside a pass must still unwind
    // the whole schedule() call so the job can time out.
    const ClusteredVliwMachine vliw(4);
    const auto graph = smallKernel(4);
    const auto scheduler = ConvergentScheduler::forMachine(vliw);

    std::string error;
    const auto plan =
        FaultPlan::parse("pass.body=timeout:nth=2", &error);
    ASSERT_TRUE(plan.has_value()) << error;
    FaultScope faults(&*plan, "degradation-test");
    ScopedFaultScope fault_guard(&faults);

    try {
        scheduler.schedule(graph);
        FAIL() << "an injected timeout must escape the pass guard";
    } catch (const StatusError &caught) {
        EXPECT_EQ(caught.status.code(), ErrorCode::Timeout);
    }
}

TEST(WeightInvariants, AcceptAFreshAndANormalizedMatrix)
{
    PreferenceMatrix weights(3, 4, 2);
    EXPECT_TRUE(checkWeightInvariants(weights, "INITTIME").ok());

    auto row = weights.row(1);
    row.scaleCluster(0, 0.25);
    row.normalize();
    EXPECT_TRUE(checkWeightInvariants(weights, "PLACE").ok());
}

TEST(WeightInvariants, ScalingWithoutNormalizingIsCaughtAndHealable)
{
    // A buggy pass that scales a row without restoring the sum-to-one
    // invariant: the guard flags it, and one renormalization -- the
    // scheduler's healing step -- restores the invariants.
    PreferenceMatrix weights(2, 3, 2);
    weights.row(0).scaleCluster(1, 3.0);
    const Status broken = checkWeightInvariants(weights, "PLACE");
    ASSERT_FALSE(broken.ok());
    EXPECT_EQ(broken.code(), ErrorCode::CheckFailed);
    EXPECT_NE(broken.message().find("PLACE"), std::string::npos);

    weights.normalizeAll();
    EXPECT_TRUE(checkWeightInvariants(weights, "PLACE").ok());
}

TEST(WeightInvariants, NonFiniteWeightsCannotBeHealed)
{
    PreferenceMatrix weights(2, 2, 2);
    weights.row(1).set(0, 1, INFINITY);
    const Status broken = checkWeightInvariants(weights, "COMM");
    ASSERT_FALSE(broken.ok());
    EXPECT_EQ(broken.code(), ErrorCode::CheckFailed);
    EXPECT_NE(broken.message().find("COMM"), std::string::npos);

    // Renormalizing an infinite row leaves non-finite weights behind
    // (inf/inf), so the scheduler's one healing attempt still fails
    // and the job is failed with the pass named.
    weights.normalizeAll();
    EXPECT_FALSE(checkWeightInvariants(weights, "COMM").ok());
}

} // namespace
} // namespace csched
