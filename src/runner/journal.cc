#include "runner/journal.hh"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "runner/grid_runner.hh"
#include "runner/json_report.hh"
#include "support/fault_injection.hh"
#include "support/json.hh"
#include "support/str.hh"

namespace csched {

namespace {

Status
ioError(const std::string &what, const std::string &path)
{
    return Status::internal(what + " '" + path + "': " +
                            std::strerror(errno));
}

std::string
headerLine(const std::string &fingerprint)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        w.key("journal").value(std::string(kJournalSchema));
        w.key("grid").value(fingerprint);
        w.endObject();
    }
    return compactJson(out.str());
}

} // namespace

std::string
gridFingerprint(const GridSpec &grid)
{
    std::vector<std::string> algorithms;
    for (const auto &spec : grid.algorithms)
        algorithms.push_back(spec.text());
    return join(grid.workloads, ",") + "|" +
           join(grid.machines, ",") + "|" + join(algorithms, ",") +
           "|speedup=" + (grid.computeSpeedup ? "1" : "0") +
           "|deadline=" + std::to_string(grid.deadlineMs) +
           "|retries=" + std::to_string(grid.retries);
}

std::string
journalRecordLine(const JobSpec &spec, const JobResult &result)
{
    std::ostringstream out;
    {
        JsonWriter w(out);
        w.beginObject();
        w.key("key").value(jobKey(spec));
        w.key("result").beginObject();
        writeJobResultFields(w, result);
        w.endObject();
        w.endObject();
    }
    return compactJson(out.str());
}

JobJournal::JobJournal(int fd, std::string path)
    : fd_(fd), path_(std::move(path))
{
}

JobJournal::~JobJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

StatusOr<std::unique_ptr<JobJournal>>
JobJournal::open(const std::string &path,
                 const std::string &fingerprint, bool fresh,
                 bool rewrite_header)
{
    const bool truncate = fresh || rewrite_header;
    const int flags =
        O_WRONLY | O_CREAT | O_APPEND | (truncate ? O_TRUNC : 0);
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0)
        return ioError("open journal", path);

    std::unique_ptr<JobJournal> journal(new JobJournal(fd, path));
    if (truncate) {
        const Status status =
            journal->writeLine(headerLine(fingerprint));
        if (!status.ok())
            return status;
    }
    return journal;
}

Status
JobJournal::writeLine(const std::string &line)
{
    // After a failed append the file may end mid-line; start on a
    // fresh line so the earlier artifact garbles only itself.
    const std::string record =
        (resync_ ? "\n" : "") + line + "\n";
    size_t written = 0;
    while (written < record.size()) {
        const ssize_t n = ::write(fd_, record.data() + written,
                                  record.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            resync_ = true;
            return ioError("append to journal", path_);
        }
        written += static_cast<size_t>(n);
    }
    resync_ = false;
    if (::fsync(fd_) != 0)
        return ioError("fsync journal", path_);
    return Status();
}

Status
JobJournal::append(const JobSpec &spec, const JobResult &result)
{
    const std::string line = journalRecordLine(spec, result);
    std::lock_guard<std::mutex> lock(mutex_);
    try {
        faultPoint("journal.append");
    } catch (const StatusError &error) {
        // Simulate the crash the fault models: leave a half-written
        // record (no newline, no fsync) and report the append failed.
        // The loader must skip exactly this artifact on resume.
        const std::string half = line.substr(0, line.size() / 2);
        const ssize_t ignored = ::write(fd_, half.data(), half.size());
        (void)ignored;
        resync_ = true;
        return error.status.withContext("journal append " +
                                        jobKey(spec));
    }
    return writeLine(line);
}

StatusOr<JournalReplay>
loadJournal(const std::string &path, const std::string &fingerprint)
{
    JournalReplay replay;

    std::ifstream in(path);
    if (!in) {
        // Nothing journaled yet: resume of a run that died before its
        // first record (or was never started).
        replay.rewriteHeader = true;
        return replay;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string contents = buffer.str();

    bool saw_header = false;
    for (const auto &line : split(contents, '\n')) {
        if (trim(line).empty())
            continue;
        const auto parsed = parseJson(line);
        if (!parsed.has_value() ||
            parsed->kind != JsonValue::Kind::Object) {
            // A crash artifact (truncated or garbled record): the job
            // it described simply re-runs.
            ++replay.ignoredLines;
            continue;
        }
        if (!saw_header) {
            std::string grid;
            if (!JsonFields(*parsed, "journal header")
                     .expect("journal", kJournalSchema)
                     .get("grid", &grid)
                     .ok()) {
                // No recognizable header: treat the file as untrusted
                // and start over rather than splice unknown records.
                replay.results.clear();
                replay.ignoredLines = 0;
                replay.rewriteHeader = true;
                return replay;
            }
            if (grid != fingerprint)
                return Status::invalidSpec(
                    "journal '" + path +
                    "' was written for a different grid; refusing "
                    "to resume (delete it to start over)");
            saw_header = true;
            continue;
        }
        // A record with a missing or mis-typed field is skipped like
        // any other crash artifact.
        std::string key;
        const JsonValue *result = nullptr;
        JsonFields record(*parsed, "journal record");
        auto rebuilt = record.get("key", &key).get("result", &result).ok()
                           ? parseJobResultFields(*result)
                           : record.status();
        if (!rebuilt.ok()) {
            ++replay.ignoredLines;
            continue;
        }
        replay.results[key] = std::move(*rebuilt);
    }
    replay.rewriteHeader = !saw_header;
    return replay;
}

} // namespace csched
