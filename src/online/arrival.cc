#include "online/arrival.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "support/json.hh"
#include "support/rng.hh"
#include "support/str.hh"
#include "workloads/workloads.hh"

namespace csched {

namespace {

constexpr const char *kStreamPrefix = "stream:";

bool
parseNonNegativeInt(const std::string &text, int *out)
{
    if (text.empty())
        return false;
    long value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + (c - '0');
        if (value > 1000000000L)
            return false;
    }
    *out = static_cast<int>(value);
    return true;
}

bool
parseSeed(const std::string &text, uint64_t *out)
{
    if (text.empty())
        return false;
    uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + static_cast<uint64_t>(c - '0');
    }
    *out = value;
    return true;
}

bool
fail(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

/** Parse the `k=v` fields shared by the generator kinds. */
bool
parseStreamFields(const std::vector<std::string> &fields, StreamSpec &spec,
                  std::string *error)
{
    for (size_t i = 2; i < fields.size(); ++i) {
        const std::string &field = fields[i];
        const size_t eq = field.find('=');
        if (eq == std::string::npos || eq == 0)
            return fail(error, "stream option must be key=value, got '" +
                                   field + "'");
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        if (key == "seed") {
            if (!parseSeed(value, &spec.seed))
                return fail(error, "bad stream seed '" + value + "'");
        } else if (key == "n") {
            if (!parseNonNegativeInt(value, &spec.count) ||
                spec.count < 1 || spec.count > 100000)
                return fail(error, "stream n must be in [1, 100000], got '" +
                                       value + "'");
        } else if (key == "mean-gap") {
            if (!parseNonNegativeInt(value, &spec.meanGap) ||
                spec.meanGap < 1)
                return fail(error, "stream mean-gap must be >= 1, got '" +
                                       value + "'");
        } else if (key == "gap") {
            if (!parseNonNegativeInt(value, &spec.gap) || spec.gap < 1)
                return fail(error,
                            "stream gap must be >= 1, got '" + value + "'");
        } else if (key == "burst") {
            if (!parseNonNegativeInt(value, &spec.burst) || spec.burst < 1)
                return fail(error,
                            "stream burst must be >= 1, got '" + value + "'");
        } else if (key == "max-weight") {
            if (!parseNonNegativeInt(value, &spec.maxWeight) ||
                spec.maxWeight < 1)
                return fail(error, "stream max-weight must be >= 1, got '" +
                                       value + "'");
        } else if (key == "deadline-gap") {
            if (!parseNonNegativeInt(value, &spec.deadlineGap))
                return fail(error, "stream deadline-gap must be >= 0, got '" +
                                       value + "'");
        } else if (key == "workloads") {
            spec.workloads.clear();
            for (const std::string &name : split(value, '+')) {
                if (name.empty())
                    return fail(error, "empty workload in stream list '" +
                                           value + "'");
                spec.workloads.push_back(name);
            }
        } else if (key == "file") {
            spec.file = value;
        } else {
            return fail(error, "unknown stream option '" + key + "'");
        }
    }
    return true;
}

} // namespace

bool
isStreamWorkload(const std::string &name)
{
    return name.rfind(kStreamPrefix, 0) == 0;
}

std::optional<StreamSpec>
parseStreamSpec(const std::string &text, std::string *error)
{
    if (!isStreamWorkload(text)) {
        fail(error, "not a stream spec (want 'stream:...'): '" + text + "'");
        return std::nullopt;
    }
    StreamSpec spec;
    spec.text = text;
    spec.workloads = {"fir", "vvmul", "jacobi"};
    const std::vector<std::string> fields = split(text, ':');
    if (fields.size() < 2 || fields[1].empty()) {
        fail(error, "stream spec missing a kind: '" + text + "'");
        return std::nullopt;
    }
    spec.kind = fields[1];
    if (spec.kind != "poisson" && spec.kind != "bursty" &&
        spec.kind != "trace") {
        fail(error, "unknown stream kind '" + spec.kind +
                        "' (want poisson|bursty|trace)");
        return std::nullopt;
    }
    if (!parseStreamFields(fields, spec, error))
        return std::nullopt;
    if (spec.kind == "trace") {
        if (spec.file.empty()) {
            fail(error, "stream:trace requires file=PATH");
            return std::nullopt;
        }
        return spec;
    }
    if (!spec.file.empty()) {
        fail(error, "file= is only valid for stream:trace");
        return std::nullopt;
    }
    for (const std::string &name : spec.workloads) {
        if (tryFindWorkload(name) == nullptr) {
            fail(error, "unknown workload '" + name + "' in stream spec");
            return std::nullopt;
        }
    }
    return spec;
}

StatusOr<std::vector<RegionArrival>>
generateArrivals(const StreamSpec &spec)
{
    if (spec.kind == "trace") {
        std::ifstream in(spec.file, std::ios::binary);
        if (!in)
            return Status::invalidSpec("cannot open stream trace '" +
                                       spec.file + "'");
        std::ostringstream text;
        text << in.rdbuf();
        return parseStreamTrace(text.str());
    }

    std::vector<RegionArrival> arrivals;
    arrivals.reserve(static_cast<size_t>(spec.count));
    Rng rng(spec.seed);
    int release = 0;
    for (int i = 0; i < spec.count; ++i) {
        if (spec.kind == "poisson") {
            // Exponential inter-arrival gaps; uniform() < 1 keeps the
            // log argument strictly positive.
            const double u = rng.uniform();
            release += static_cast<int>(
                std::floor(-std::log(1.0 - u) *
                           static_cast<double>(spec.meanGap)));
        } else if (i > 0 && i % spec.burst == 0) {
            // bursty: `burst` simultaneous releases, then a quiet gap.
            release += spec.gap;
        }
        RegionArrival arrival;
        arrival.id = i;
        arrival.workload =
            spec.workloads[static_cast<size_t>(rng.range(
                static_cast<int>(spec.workloads.size())))];
        arrival.release = release;
        arrival.weight = rng.between(1, spec.maxWeight);
        arrival.deadline =
            spec.deadlineGap > 0 ? release + spec.deadlineGap : -1;
        arrivals.push_back(std::move(arrival));
    }
    return arrivals;
}

std::string
streamTraceText(const StreamSpec &spec,
                const std::vector<RegionArrival> &arrivals)
{
    std::ostringstream out;
    {
        std::ostringstream header;
        JsonWriter w(header);
        w.beginObject();
        w.key("schema").value(kStreamTraceSchema);
        w.key("spec").value(spec.text);
        w.key("count").value(static_cast<int>(arrivals.size()));
        w.endObject();
        out << compactJson(header.str()) << '\n';
    }
    for (const RegionArrival &arrival : arrivals) {
        std::ostringstream line;
        JsonWriter w(line);
        w.beginObject();
        w.key("id").value(arrival.id);
        w.key("workload").value(arrival.workload);
        w.key("release").value(arrival.release);
        w.key("weight").value(arrival.weight);
        w.key("deadline").value(arrival.deadline);
        w.endObject();
        out << compactJson(line.str()) << '\n';
    }
    return out.str();
}

StatusOr<std::vector<RegionArrival>>
parseStreamTrace(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    bool sawHeader = false;
    std::vector<RegionArrival> arrivals;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (trim(line).empty())
            continue;
        std::string parseError;
        std::optional<JsonValue> record = parseJson(line, &parseError);
        if (!record)
            return Status::invalidSpec(
                "stream trace line " + std::to_string(lineNo) +
                " is not JSON: " + parseError);
        if (!sawHeader) {
            JsonFields header(*record, "stream trace header");
            if (!header.expect("schema", kStreamTraceSchema).ok())
                return header.status();
            sawHeader = true;
            continue;
        }
        RegionArrival arrival;
        arrival.id = static_cast<int>(arrivals.size());
        JsonFields fields(*record,
                          "stream trace line " + std::to_string(lineNo));
        fields.get("workload", &arrival.workload)
            .optional("id", &arrival.id)
            .optional("release", &arrival.release)
            .optional("weight", &arrival.weight)
            .optional("deadline", &arrival.deadline);
        if (!fields.ok())
            return fields.status();
        if (tryFindWorkload(arrival.workload) == nullptr)
            return Status::invalidSpec("stream trace names unknown workload '" +
                                       arrival.workload + "'");
        if (arrival.release < 0 || arrival.weight < 1)
            return Status::invalidSpec(
                "stream trace line " + std::to_string(lineNo) +
                " has a negative release or non-positive weight");
        arrivals.push_back(std::move(arrival));
    }
    if (!sawHeader)
        return Status::invalidSpec("stream trace has no header line");
    for (size_t i = 0; i < arrivals.size(); ++i) {
        if (arrivals[i].id != static_cast<int>(i))
            return Status::invalidSpec(
                "stream trace ids must be dense and ordered (0..n-1)");
        if (i > 0 && arrivals[i].release < arrivals[i - 1].release)
            return Status::invalidSpec(
                "stream trace releases must be nondecreasing");
    }
    return arrivals;
}

} // namespace csched
