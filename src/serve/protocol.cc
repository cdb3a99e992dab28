#include "serve/protocol.hh"

#include <sstream>

#include "runner/json_report.hh"
#include "support/json.hh"

namespace csched {

std::string
encodeServeRequest(const ServeRequest &request)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        w.key("schema").value(kServeRequestSchema);
        w.key("id").value(request.id);
        w.key("workload").value(request.workload);
        w.key("machine").value(request.machine);
        w.key("algorithm").value(request.algorithm);
        w.key("deadlineMs").value(request.deadlineMs);
        w.key("computeSpeedup").value(request.computeSpeedup);
        w.endObject();
    }
    return compactJson(out.str());
}

StatusOr<ServeRequest>
decodeServeRequest(const std::string &payload, uint64_t *id_out)
{
    std::string error;
    const auto parsed = parseJson(payload, &error);
    if (!parsed.has_value())
        return Status::invalidSpec("request frame is not JSON: " +
                                   error);

    // Salvage the id first so even a rejected request can be answered
    // under the exactly-one-reply contract.
    ServeRequest request;
    JsonFields fields(*parsed, "request");
    if (fields.get("id", &request.id).ok() && id_out != nullptr)
        *id_out = request.id;
    fields.expect("schema", kServeRequestSchema)
        .get("workload", &request.workload)
        .get("machine", &request.machine)
        .get("algorithm", &request.algorithm)
        .optional("deadlineMs", &request.deadlineMs, 0)
        .optional("computeSpeedup", &request.computeSpeedup);
    if (!fields.ok())
        return fields.status();
    return request;
}

std::string
encodeServeResponse(const ServeResponse &response, bool timings)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        w.key("schema").value(kServeResponseSchema);
        w.key("id").value(response.id);
        w.key("status").value(response.status);
        w.key("cached").value(response.cached);
        w.key("coalesced").value(response.coalesced);
        if (timings)
            w.key("queueMs").value(response.queueMs);
        w.key("serverDiagnostic").value(response.serverDiagnostic);
        w.key("result").beginObject();
        writeJobResultFields(w, response.result);
        w.endObject();
        w.endObject();
    }
    return compactJson(out.str());
}

StatusOr<ServeResponse>
decodeServeResponse(const std::string &payload)
{
    std::string error;
    const auto parsed = parseJson(payload, &error);
    if (!parsed.has_value())
        return Status::invalidSpec("response frame is not JSON: " +
                                   error);
    ServeResponse response;
    const JsonValue *result_value = nullptr;
    JsonFields fields(*parsed, "response");
    fields.expect("schema", kServeResponseSchema)
        .get("id", &response.id)
        .get("status", &response.status)
        .get("cached", &response.cached)
        .get("coalesced", &response.coalesced)
        .optional("queueMs", &response.queueMs)
        .optional("serverDiagnostic", &response.serverDiagnostic)
        .get("result", &result_value);
    if (!fields.ok())
        return fields.status();
    auto result = parseJobResultFields(*result_value);
    if (!result.ok())
        return Status::invalidSpec("response " +
                                   result.status().message());
    response.result = std::move(*result);
    return response;
}

std::string
serveStatusOf(const JobResult &result)
{
    if (result.outcome == JobOutcome::Ok)
        return "ok";
    return errorCodeName(result.error);
}

ServeResponse
makeRejection(const ServeRequest &request, const Status &status)
{
    ServeResponse response;
    response.id = request.id;
    response.status = errorCodeName(status.code());
    response.result.workload = request.workload;
    response.result.machine = request.machine;
    response.result.algorithm = request.algorithm;
    response.result.outcome =
        status.code() == ErrorCode::Interrupted
            ? JobOutcome::Interrupted
            : (status.code() == ErrorCode::Timeout
                   ? JobOutcome::Timeout
                   : JobOutcome::Failed);
    response.result.error = status.code();
    response.result.diagnostic = status.message();
    response.result.attempts = 0;  // no attempt consumed a worker
    return response;
}

} // namespace csched
