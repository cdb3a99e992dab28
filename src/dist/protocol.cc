#include "dist/protocol.hh"

#include <sstream>

#include "runner/json_report.hh"
#include "support/json.hh"

namespace csched {

namespace {

/** Shared skeleton: {"schema": ..., "type": ...}. */
void
writeEnvelope(JsonWriter &w, const char *type)
{
    w.key("schema").value(kDistSchema);
    w.key("type").value(type);
}

std::string
finish(std::ostringstream &out)
{
    return compactJson(out.str());
}

Status
shapeError(const std::string &what)
{
    return Status::invalidSpec("dist frame: " + what);
}

} // namespace

const char *
distMessageKindName(DistMessage::Kind kind)
{
    switch (kind) {
      case DistMessage::Kind::Hello:
        return "hello";
      case DistMessage::Kind::Welcome:
        return "welcome";
      case DistMessage::Kind::Job:
        return "job";
      case DistMessage::Kind::Result:
        return "result";
      case DistMessage::Kind::Ping:
        return "ping";
      case DistMessage::Kind::Pong:
        return "pong";
    }
    CSCHED_PANIC("unreachable dist message kind ",
                 static_cast<int>(kind));
}

std::string
encodeDistHello()
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        writeEnvelope(w, "hello");
        w.endObject();
    }
    return finish(out);
}

std::string
encodeDistWelcome(int capacity)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        writeEnvelope(w, "welcome");
        w.key("capacity").value(capacity);
        w.endObject();
    }
    return finish(out);
}

std::string
encodeDistJob(uint64_t id, const JobSpec &spec,
              const JobPolicy &policy, int retries,
              const BaselineMemo *baselines)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        writeEnvelope(w, "job");
        w.key("id").value(id);
        writeWorkerJobFields(w, spec, policy, retries, "", baselines);
        w.endObject();
    }
    return finish(out);
}

std::string
encodeDistResult(uint64_t id, const JobResult &result)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        writeEnvelope(w, "result");
        w.key("id").value(id);
        w.key("result").beginObject();
        writeJobResultFields(w, result);
        w.endObject();
        w.endObject();
    }
    return finish(out);
}

std::string
encodeDistPing(uint64_t seq)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        writeEnvelope(w, "ping");
        w.key("seq").value(seq);
        w.endObject();
    }
    return finish(out);
}

std::string
encodeDistPong(uint64_t seq)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        writeEnvelope(w, "pong");
        w.key("seq").value(seq);
        w.endObject();
    }
    return finish(out);
}

StatusOr<DistMessage>
decodeDistMessage(const std::string &payload)
{
    const auto parsed = parseJson(payload);
    if (!parsed.has_value())
        return shapeError("not JSON");

    DistMessage msg;
    std::string type;
    JsonFields fields(*parsed, "dist frame");
    if (!fields.expect("schema", kDistSchema).get("type", &type).ok())
        return fields.status();
    if (type == "hello") {
        msg.kind = DistMessage::Kind::Hello;
    } else if (type == "welcome") {
        msg.kind = DistMessage::Kind::Welcome;
        fields.get("capacity", &msg.capacity, 1);
    } else if (type == "ping" || type == "pong") {
        msg.kind = type == "ping" ? DistMessage::Kind::Ping
                                  : DistMessage::Kind::Pong;
        fields.get("seq", &msg.seq);
    } else if (type == "job") {
        msg.kind = DistMessage::Kind::Job;
        if (fields.get("id", &msg.id).ok()) {
            auto frame = decodeWorkerJobFields(*parsed);
            if (!frame.ok())
                return shapeError("job " + frame.status().message());
            msg.job = std::move(*frame);
        }
    } else if (type == "result") {
        msg.kind = DistMessage::Kind::Result;
        const JsonValue *result = nullptr;
        if (fields.get("id", &msg.id).get("result", &result).ok()) {
            auto decoded = parseJobResultFields(*result);
            if (!decoded.ok())
                return shapeError(decoded.status().message());
            msg.result = std::move(*decoded);
        }
    } else {
        return shapeError("unknown type '" + type + "'");
    }
    if (!fields.ok())
        return fields.status();
    return msg;
}

} // namespace csched
