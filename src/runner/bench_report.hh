/**
 * @file
 * The csched-bench-report-v1 schema: the persistent perf-trajectory
 * record emitted by `csched_bench perf` and gated by tools/ci.sh.
 *
 * Five documents share the schema, distinguished by "kind":
 *
 *  - "pass-kernels" (BENCH_pass_kernels.json): one cell per
 *    (workload, machine, algorithm, kernel) where kernel is a
 *    convergent pass name and algorithm the spec of the end-to-end
 *    cell it was read off; medianSeconds is the median-of-N wall time
 *    of that pass inside the timed samples of that end-to-end cell.
 *  - "end-to-end" (BENCH_end_to_end.json): one cell per
 *    (workload, machine, algorithm); medianSeconds is the median-of-N
 *    wall time of a complete schedule() call (graph construction
 *    excluded), with the resulting makespan and instruction count for
 *    context.
 *  - "online" (BENCH_online.json): one cell per
 *    (stream spec, machine, online policy); medianSeconds is the
 *    median-of-N wall time of one full runOnline() commit loop over a
 *    pre-generated arrival stream (stream generation untimed), with
 *    the committed timeline's makespan and instruction count for
 *    context.  The workload field carries the stream spec text.
 *  - "mesh" (BENCH_mesh.json): per Raw mesh spec (the machine field,
 *    fault map included) two kernels: "construct" (workload "-"),
 *    one machine-spec parse with its fault-map materialisation and
 *    detour tables, and "schedule" (workload "mxm", algorithm "uas"),
 *    one schedule-and-check run, with its makespan and instruction
 *    count for context.
 *  - "dist" (BENCH_dist.json): one fixed grid, its workloads joined
 *    by '+' in the workload field, timed through the grid runner; the
 *    kernel field names the execution mode ("isolate" or "dist-2x2")
 *    and medianSeconds is the median-of-N grid wall time.
 *
 * Document layout (the one spelling every kind shares):
 *
 *   {
 *     "schema": "csched-bench-report-v1",
 *     "kind": "pass-kernels" | "end-to-end" | "online" | "mesh" |
 *             "dist",
 *     "meta": { "commit", "buildType", "compiler", "flags", "host",
 *               "repeats" },
 *     "cells": [ { "workload", "machine", "kernel" and/or "algorithm",
 *                  "medianSeconds", "minSeconds", "reps",
 *                  when scheduled: "instructions", "makespan",
 *                  optional: "preRewriteSeconds" } ]
 *   }
 *
 * "medianSeconds" is the headline statistic; "minSeconds" (best-of-N)
 * is what the regression gate compares when both sides carry it,
 * because the minimum is far more robust to ambient machine load than
 * the median on half-second cells.
 *
 * "preRewriteSeconds" carries the medians measured on the engine as
 * it was before the blocked-layout rewrite (see EXPERIMENTS.md), so
 * the perf trajectory's starting point travels with the report.
 *
 * Cells are identified by workload, machine, and algorithm and kernel
 * where set; compareBenchReports() joins two reports on that key and
 * fails on relative slowdown beyond a threshold: the ci.sh perf gate.
 * Serialization uses the deterministic JsonWriter of support/json --
 * the same infrastructure as the csched-grid-report-v2 documents --
 * so bench reports diff cleanly and parse with the same parser.
 */

#ifndef CSCHED_RUNNER_BENCH_REPORT_HH
#define CSCHED_RUNNER_BENCH_REPORT_HH

#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace csched {

/** Schema identifier written into every bench report. */
inline const char *kBenchReportSchema = "csched-bench-report-v1";

/** Build/host provenance recorded with every measurement. */
struct BenchMeta
{
    std::string commit;     ///< git commit the binary was built from
    std::string buildType;  ///< CMAKE_BUILD_TYPE
    std::string compiler;   ///< compiler version string
    std::string flags;      ///< optimisation-relevant compile flags
    std::string host;       ///< uname sysname/release/machine
    int repeats = 0;        ///< samples per cell (median-of-N)
};

/** One measured cell. */
struct BenchCell
{
    std::string workload;
    std::string machine;
    /**
     * Pass name for "pass-kernels" documents, the measured step for
     * "mesh" and the execution mode for "dist"; empty otherwise.
     */
    std::string kernel;
    /** Algorithm or policy spec of a scheduled cell or kernel; else empty. */
    std::string algorithm;
    double medianSeconds = 0.0;
    /** Best-of-N; < 0 when absent (reports written before the field). */
    double minSeconds = -1.0;
    int reps = 0;
    /** Scheduled-cell context; 0 where nothing was scheduled. */
    int instructions = 0;
    int makespan = 0;
    /** Median on the pre-rewrite engine, when annotated; else < 0. */
    double preRewriteSeconds = -1.0;

    /** The join key: workload/machine[/algorithm][/kernel]. */
    std::string key() const;
};

/** One complete bench document. */
struct BenchReport
{
    /** "pass-kernels", "end-to-end", "online", "mesh", or "dist". */
    std::string kind;
    BenchMeta meta;
    std::vector<BenchCell> cells;
};

/** Serialize @p report (trailing newline included). */
std::string benchReportToJson(const BenchReport &report);

/**
 * Parse a csched-bench-report-v1 document.  Returns std::nullopt on
 * syntax errors, schema mismatch, or missing required fields and,
 * when @p error is non-null, stores the reason.
 */
std::optional<BenchReport> parseBenchReport(const std::string &text,
                                            std::string *error = nullptr);

/** Knobs of the perf regression gate. */
struct BenchCompareOptions
{
    /** Fail when (current - baseline) / baseline exceeds this. */
    double slowdownThreshold = 0.15;
    /**
     * Ignore cells whose baseline median is below this (sub-100us
     * kernels are dominated by timer noise, not by the engine).
     */
    double minBaselineSeconds = 1e-4;
};

/**
 * Compare @p current against @p baseline cell-by-cell and print a
 * per-kernel delta table to @p out.  Cells present on only one side
 * are reported but never fail the gate (the suite may grow).  Returns
 * true when no joined cell regressed beyond the threshold.  Reports
 * of different build types or compiler flags are not compared: the
 * call prints a one-line reason and returns false.
 */
bool compareBenchReports(const BenchReport &baseline,
                         const BenchReport &current,
                         const BenchCompareOptions &options,
                         std::ostream &out);

} // namespace csched

#endif // CSCHED_RUNNER_BENCH_REPORT_HH
