/**
 * @file
 * Tests for the csched-bench-report-v1 schema: serialization
 * round-trips, parser validation, and the regression-gate comparison
 * semantics (min-based gating, threshold, one-sided cells).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "runner/bench_report.hh"

namespace csched {
namespace {

BenchReport
sampleReport()
{
    BenchReport report;
    report.kind = "end-to-end";
    report.meta.commit = "abc1234";
    report.meta.buildType = "Release";
    report.meta.compiler = "g++ 12";
    report.meta.flags = "-O3";
    report.meta.host = "Linux x86_64";
    report.meta.repeats = 5;
    BenchCell cell;
    cell.workload = "synth-wide-10k";
    cell.machine = "vliw4";
    cell.algorithm = "convergent";
    cell.medianSeconds = 1.25;
    cell.minSeconds = 1.20;
    cell.reps = 5;
    cell.instructions = 10000;
    cell.makespan = 1409;
    cell.preRewriteSeconds = 2.98;
    report.cells.push_back(cell);
    return report;
}

TEST(BenchReport, RoundTripsThroughJson)
{
    const BenchReport report = sampleReport();
    const std::string json = benchReportToJson(report);
    std::string error;
    const auto parsed = parseBenchReport(json, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->kind, "end-to-end");
    EXPECT_EQ(parsed->meta.commit, "abc1234");
    EXPECT_EQ(parsed->meta.repeats, 5);
    ASSERT_EQ(parsed->cells.size(), 1u);
    const BenchCell &cell = parsed->cells[0];
    EXPECT_EQ(cell.key(), "synth-wide-10k/vliw4/convergent");
    EXPECT_DOUBLE_EQ(cell.medianSeconds, 1.25);
    EXPECT_DOUBLE_EQ(cell.minSeconds, 1.20);
    EXPECT_EQ(cell.instructions, 10000);
    EXPECT_EQ(cell.makespan, 1409);
    EXPECT_DOUBLE_EQ(cell.preRewriteSeconds, 2.98);
}

TEST(BenchReport, KernelCellsKeyOnKernelName)
{
    BenchCell cell;
    cell.workload = "mxm";
    cell.machine = "vliw4";
    cell.kernel = "COMM.2";
    EXPECT_EQ(cell.key(), "mxm/vliw4/COMM.2");
}

TEST(BenchReport, KernelCellsOfTwoAlgorithmSpecsJoinApart)
{
    // fir/vliw2/convergent and fir/vliw2/convergent:INITTIME both run
    // INITTIME, at different speeds.
    BenchReport baseline;
    baseline.kind = "pass-kernels";
    for (const char *algorithm : {"convergent", "convergent:INITTIME"}) {
        BenchCell cell;
        cell.workload = "fir";
        cell.machine = "vliw2";
        cell.kernel = "INITTIME";
        cell.algorithm = algorithm;
        baseline.cells.push_back(cell);
    }
    baseline.cells[0].medianSeconds = 1.0;
    baseline.cells[1].medianSeconds = 5.0;
    EXPECT_EQ(baseline.cells[0].key(), "fir/vliw2/convergent/INITTIME");
    EXPECT_EQ(baseline.cells[1].key(),
              "fir/vliw2/convergent:INITTIME/INITTIME");

    // The first cell doubled.  Joined against the other cell's 5 s
    // baseline, as a shared key would, it would pass as faster.
    BenchReport current = baseline;
    current.cells[0].medianSeconds = 2.0;
    std::ostringstream out;
    EXPECT_FALSE(compareBenchReports(baseline, current,
                                     BenchCompareOptions{}, out))
        << out.str();
}

TEST(BenchReport, ParserRejectsOtherSchemas)
{
    std::string error;
    EXPECT_FALSE(parseBenchReport("{\"schema\": \"nope\"}", &error)
                     .has_value());
    EXPECT_NE(error.find("csched-bench-report-v1"), std::string::npos);
    EXPECT_FALSE(parseBenchReport("not json at all").has_value());
}

TEST(BenchReport, ParserRequiresCellKeyAndMedian)
{
    const std::string json =
        "{\"schema\": \"csched-bench-report-v1\", \"kind\": "
        "\"end-to-end\", \"cells\": [{\"workload\": \"mxm\"}]}";
    std::string error;
    EXPECT_FALSE(parseBenchReport(json, &error).has_value());
    EXPECT_NE(error.find("medianSeconds"), std::string::npos);

    const std::string mistyped =
        "{\"schema\": \"csched-bench-report-v1\", \"kind\": "
        "\"end-to-end\", \"cells\": [{\"workload\": \"mxm\", "
        "\"machine\": \"vliw4\", \"medianSeconds\": \"x\"}]}";
    error.clear();
    EXPECT_FALSE(parseBenchReport(mistyped, &error).has_value());
    EXPECT_NE(error.find("medianSeconds"), std::string::npos) << error;
}

TEST(BenchReport, MissingMinSecondsStaysAbsent)
{
    BenchReport report = sampleReport();
    report.cells[0].minSeconds = -1.0;
    const auto parsed = parseBenchReport(benchReportToJson(report));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_LT(parsed->cells[0].minSeconds, 0.0);
}

/** Compare two single-cell reports and report the verdict. */
bool
compareTimes(double base_median, double base_min, double cur_median,
             double cur_min, std::string *table = nullptr)
{
    BenchReport baseline = sampleReport();
    baseline.cells[0].medianSeconds = base_median;
    baseline.cells[0].minSeconds = base_min;
    BenchReport current = sampleReport();
    current.cells[0].medianSeconds = cur_median;
    current.cells[0].minSeconds = cur_min;
    std::ostringstream out;
    const bool ok = compareBenchReports(baseline, current,
                                        BenchCompareOptions{}, out);
    if (table != nullptr)
        *table = out.str();
    return ok;
}

TEST(BenchCompare, PassesWithinThreshold)
{
    EXPECT_TRUE(compareTimes(1.0, 1.0, 1.1, 1.1));
}

TEST(BenchCompare, FailsBeyondThreshold)
{
    std::string table;
    EXPECT_FALSE(compareTimes(1.0, 1.0, 1.3, 1.3, &table));
    EXPECT_NE(table.find("REGRESSED"), std::string::npos);
}

TEST(BenchCompare, GatesOnMinWhenBothSidesCarryIt)
{
    // Median regressed 40% (a noisy run) but best-of-N is stable:
    // min-based gating must pass...
    EXPECT_TRUE(compareTimes(1.0, 1.0, 1.4, 1.02));
    // ...and a genuine slowdown visible in the minimum must fail even
    // if the medians happen to agree.
    EXPECT_FALSE(compareTimes(1.0, 1.0, 1.0, 1.3));
}

TEST(BenchCompare, FallsBackToMedianWithoutMin)
{
    EXPECT_FALSE(compareTimes(1.0, -1.0, 1.3, -1.0));
    EXPECT_TRUE(compareTimes(1.0, -1.0, 1.05, -1.0));
}

TEST(BenchCompare, OneSidedCellsNeverFailTheGate)
{
    BenchReport baseline = sampleReport();
    BenchReport current = sampleReport();
    BenchCell extra = current.cells[0];
    extra.workload = "new-workload";
    current.cells.push_back(extra);
    BenchCell gone = baseline.cells[0];
    gone.workload = "retired-workload";
    baseline.cells.push_back(gone);
    std::ostringstream out;
    EXPECT_TRUE(compareBenchReports(baseline, current,
                                    BenchCompareOptions{}, out));
    EXPECT_NE(out.str().find("new"), std::string::npos);
    EXPECT_NE(out.str().find("missing"), std::string::npos);
}

TEST(BenchCompare, SubTimerCellsAreNoise)
{
    // Baselines below minBaselineSeconds can swing by any factor
    // without failing: they measure the timer, not the engine.
    EXPECT_TRUE(compareTimes(5e-5, 5e-5, 5e-4, 5e-4));
}

} // namespace
} // namespace csched
