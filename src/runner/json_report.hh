/**
 * @file
 * JSON serialization of grid reports -- the machine-readable output
 * every downstream perf/ablation analysis consumes.
 *
 * Two layers of fields:
 *  - deterministic results (per-job outcomes and diagnostics,
 *    makespans, speedups, assignments, convergence fractions): always
 *    written, bit-identical for any thread count and across runs;
 *  - wall-clock observability (per-run and per-pass seconds, pool
 *    size): written unless options.timings is false, so reports meant
 *    for byte-wise comparison use `--no-timings`.
 *
 * Schema v2 (over v1): every job carries "outcome"/"attempts" (plus
 * "error" and "diagnostic" when not ok), measurements appear only for
 * ok jobs, and the report carries a "summary" tally -- so a salvaged
 * partial run is a complete, self-describing document.
 */

#ifndef CSCHED_RUNNER_JSON_REPORT_HH
#define CSCHED_RUNNER_JSON_REPORT_HH

#include <optional>
#include <ostream>
#include <string>

#include "runner/grid_runner.hh"

namespace csched {

/** What goes into a serialized report. */
struct ReportOptions
{
    /** Include wall-clock fields (seconds, per-pass seconds, pool). */
    bool timings = true;
    /** Include the per-instruction assignment vectors. */
    bool assignments = true;
    /** Include the per-pass convergence trace. */
    bool trace = true;
};

/** Schema identifier written into every report. */
inline const char *kGridReportSchema = "csched-grid-report-v2";

/** Serialize @p report as JSON (trailing newline included). */
void writeGridReport(std::ostream &out, const GridReport &report,
                     const ReportOptions &options = ReportOptions());

/** Convenience: serialize to a string (used by tests and the CLI). */
std::string gridReportToJson(const GridReport &report,
                             const ReportOptions &options =
                                 ReportOptions());

class JsonWriter;
struct JsonValue;

/**
 * The *wire* form of a JobResult: every field, deterministic and
 * wall-clock alike, so a round trip reproduces the result exactly.
 * This one spelling backs both persistence formats -- journal records
 * (runner/journal.cc) and worker reply frames (runner/worker.cc).
 * Writes the fields of an already-open JSON object.
 */
void writeJobResultFields(JsonWriter &w, const JobResult &result);

/**
 * Inverse of writeJobResultFields: an InvalidSpec status naming the
 * first missing or mis-typed field, or an unknown outcome.  Fields
 * added after v1 (worker metadata, online scores, skipped trace
 * flags) are optional on read, so older journals still load.
 */
StatusOr<JobResult> parseJobResultFields(const JsonValue &value);

} // namespace csched

#endif // CSCHED_RUNNER_JSON_REPORT_HH
