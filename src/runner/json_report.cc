#include "runner/json_report.hh"

#include <sstream>

#include "support/json.hh"

namespace csched {

namespace {

void
writeJob(JsonWriter &w, const JobResult &job, const ReportOptions &options)
{
    w.beginObject();
    w.key("workload").value(job.workload);
    w.key("machine").value(job.machine);
    w.key("algorithm").value(job.algorithm);
    w.key("outcome").value(std::string(jobOutcomeName(job.outcome)));
    w.key("attempts").value(job.attempts);
    if (!job.ok()) {
        // Failed cells carry their diagnosis and nothing else: the
        // measurement fields would be meaningless.
        w.key("error").value(std::string(errorCodeName(job.error)));
        w.key("diagnostic").value(job.diagnostic);
        if (job.error == ErrorCode::WorkerCrashed ||
            job.error == ErrorCode::WorkerKilled) {
            w.key("workerSignal").value(job.workerSignal);
            w.key("workerExitStatus").value(job.workerExitStatus);
        }
        w.endObject();
        return;
    }
    w.key("algorithmName").value(job.algorithmName);
    w.key("instructions").value(job.instructions);
    w.key("makespan").value(job.makespan);
    w.key("criticalPathLength").value(job.criticalPathLength);
    if (job.regions > 0) {
        // Online cells (stream workload x policy): the responsiveness
        // scores next to the shared throughput fields above.
        w.key("online").beginObject();
        w.key("regions").value(job.regions);
        w.key("weightedCompletion").value(job.weightedCompletion);
        w.key("maxFlowTime").value(job.maxFlowTime);
        w.key("meanFlowTime").value(job.meanFlowTime);
        w.key("deadlineMisses").value(job.deadlineMisses);
        w.key("preemptions").value(job.preemptions);
        w.key("fallbackDecisions").value(job.fallbackDecisions);
        w.endObject();
    }
    if (job.singleClusterMakespan > 0) {
        w.key("singleClusterMakespan")
            .value(job.singleClusterMakespan);
        w.key("speedup").value(job.speedup);
    }
    if (options.assignments)
        w.key("assignment").value(job.assignment);
    if (options.timings)
        w.key("seconds").value(job.seconds);
    if (options.trace && !job.trace.empty()) {
        w.key("trace").beginArray();
        for (const auto &step : job.trace) {
            w.beginObject();
            w.key("pass").value(step.pass);
            w.key("fractionChanged").value(step.fractionChanged);
            w.key("temporalOnly").value(step.temporalOnly);
            // Written only when set, so reports of runs where no pass
            // misbehaved keep their exact pre-degradation bytes.
            if (step.skipped)
                w.key("skipped").value(true);
            if (options.timings)
                w.key("seconds").value(step.seconds);
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
}

} // namespace

void
writeGridReport(std::ostream &out, const GridReport &report,
                const ReportOptions &options)
{
    JsonWriter w(out);
    w.beginObject();
    w.key("schema").value(kGridReportSchema);
    // Always written (false on a complete run) so a resumed-to-
    // completion report is byte-identical to an uninterrupted one.
    w.key("interrupted").value(report.interrupted);
    if (options.timings) {
        w.key("threads").value(report.threads);
        w.key("wallSeconds").value(report.wallSeconds);
    }
    w.key("summary").beginObject();
    w.key("total").value(report.summary.total);
    w.key("ok").value(report.summary.ok);
    w.key("failed").value(report.summary.failed);
    w.key("timeout").value(report.summary.timeout);
    w.key("retried").value(report.summary.retried);
    w.key("interrupted").value(report.summary.interrupted);
    w.endObject();
    w.key("results").beginArray();
    for (const auto &job : report.results)
        writeJob(w, job, options);
    w.endArray();
    w.endObject();
    out << "\n";
}

std::string
gridReportToJson(const GridReport &report, const ReportOptions &options)
{
    std::ostringstream out;
    writeGridReport(out, report, options);
    return out.str();
}

void
writeJobResultFields(JsonWriter &w, const JobResult &result)
{
    w.key("workload").value(result.workload);
    w.key("machine").value(result.machine);
    w.key("algorithm").value(result.algorithm);
    w.key("algorithmName").value(result.algorithmName);
    w.key("outcome").value(
        std::string(jobOutcomeName(result.outcome)));
    w.key("error").value(std::string(errorCodeName(result.error)));
    w.key("diagnostic").value(result.diagnostic);
    w.key("attempts").value(result.attempts);
    w.key("workerSignal").value(result.workerSignal);
    w.key("workerExitStatus").value(result.workerExitStatus);
    w.key("instructions").value(result.instructions);
    w.key("makespan").value(result.makespan);
    w.key("criticalPathLength").value(result.criticalPathLength);
    w.key("singleClusterMakespan")
        .value(result.singleClusterMakespan);
    w.key("speedup").value(result.speedup);
    w.key("assignment").value(result.assignment);
    w.key("regions").value(result.regions);
    w.key("weightedCompletion").value(result.weightedCompletion);
    w.key("maxFlowTime").value(result.maxFlowTime);
    w.key("meanFlowTime").value(result.meanFlowTime);
    w.key("deadlineMisses").value(result.deadlineMisses);
    w.key("preemptions").value(result.preemptions);
    w.key("fallbackDecisions").value(result.fallbackDecisions);
    w.key("seconds").value(result.seconds);
    w.key("trace").beginArray();
    for (const auto &step : result.trace) {
        w.beginObject();
        w.key("pass").value(step.pass);
        w.key("fractionChanged").value(step.fractionChanged);
        w.key("temporalOnly").value(step.temporalOnly);
        w.key("skipped").value(step.skipped);
        w.key("seconds").value(step.seconds);
        w.endObject();
    }
    w.endArray();
}

StatusOr<JobResult>
parseJobResultFields(const JsonValue &value)
{
    JobResult result;
    std::string outcome;
    std::string error;
    const std::vector<JsonValue> *trace = nullptr;
    JsonFields fields(value, "job result");
    fields.get("workload", &result.workload)
        .get("machine", &result.machine)
        .get("algorithm", &result.algorithm)
        .get("algorithmName", &result.algorithmName)
        .get("outcome", &outcome)
        .get("error", &error)
        .get("diagnostic", &result.diagnostic)
        .get("attempts", &result.attempts)
        // Post-v1 fields: absent in journals written before the
        // worker layer and the online cells existed, so optional.
        .optional("workerSignal", &result.workerSignal)
        .optional("workerExitStatus", &result.workerExitStatus)
        .optional("regions", &result.regions)
        .optional("weightedCompletion", &result.weightedCompletion)
        .optional("maxFlowTime", &result.maxFlowTime)
        .optional("meanFlowTime", &result.meanFlowTime)
        .optional("deadlineMisses", &result.deadlineMisses)
        .optional("preemptions", &result.preemptions)
        .optional("fallbackDecisions", &result.fallbackDecisions)
        .get("instructions", &result.instructions)
        .get("makespan", &result.makespan)
        .get("criticalPathLength", &result.criticalPathLength)
        .get("singleClusterMakespan", &result.singleClusterMakespan)
        .get("speedup", &result.speedup)
        .get("seconds", &result.seconds)
        .get("assignment", &result.assignment)
        .get("trace", &trace);
    if (!fields.ok())
        return fields.status();

    const auto parsed_outcome = parseJobOutcomeName(outcome);
    if (!parsed_outcome.has_value())
        return Status::invalidSpec("job result outcome '" + outcome +
                                   "' is unknown");
    result.outcome = *parsed_outcome;
    result.error = parseErrorCodeName(error).value_or(ErrorCode::Ok);
    for (const auto &step : *trace) {
        PassStep parsed;
        JsonFields step_fields(step, "job result trace step");
        step_fields.get("pass", &parsed.pass)
            .get("fractionChanged", &parsed.fractionChanged)
            .get("temporalOnly", &parsed.temporalOnly)
            .optional("skipped", &parsed.skipped)
            .get("seconds", &parsed.seconds);
        if (!step_fields.ok())
            return step_fields.status();
        result.trace.push_back(std::move(parsed));
    }
    return result;
}

} // namespace csched
