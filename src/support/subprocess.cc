#include "support/subprocess.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>

#include <poll.h>
#include <sys/resource.h>
#include <unistd.h>

namespace csched {

namespace {

using SteadyClock = std::chrono::steady_clock;

/**
 * Read exactly @p want bytes, polling so the overall @p deadline (a
 * time point; nullopt = none) bounds the wait even when the peer
 * stalls mid-frame.  Returns the number of bytes read (< want only on
 * EOF/timeout/error; *why distinguishes the latter two).
 */
size_t
readFull(int fd, char *out, size_t want,
         const std::optional<SteadyClock::time_point> &deadline,
         std::string *why)
{
    size_t got = 0;
    while (got < want) {
        if (deadline.has_value()) {
            const auto now = SteadyClock::now();
            if (now >= *deadline) {
                *why = "timeout";
                return got;
            }
            const int wait_ms = static_cast<int>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    *deadline - now)
                    .count() +
                1);
            struct pollfd pfd = {fd, POLLIN, 0};
            const int ready = ::poll(&pfd, 1, wait_ms);
            if (ready < 0) {
                if (errno == EINTR)
                    continue;
                *why = std::string("poll: ") + std::strerror(errno);
                return got;
            }
            if (ready == 0) {
                *why = "timeout";
                return got;
            }
        }
        const ssize_t n = ::read(fd, out + got, want - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            *why = std::string("read: ") + std::strerror(errno);
            return got;
        }
        if (n == 0) {
            *why = "eof";
            return got;
        }
        got += static_cast<size_t>(n);
    }
    return got;
}

} // namespace

Status
writeFrame(int fd, const std::string &payload)
{
    const uint32_t length = static_cast<uint32_t>(payload.size());
    if (payload.size() > kMaxFrameBytes)
        return Status::internal("frame payload of " +
                                std::to_string(payload.size()) +
                                " bytes exceeds the frame cap");
    std::string frame;
    frame.reserve(4 + payload.size());
    for (int shift = 0; shift < 32; shift += 8)
        frame.push_back(static_cast<char>((length >> shift) & 0xff));
    frame += payload;

    size_t written = 0;
    while (written < frame.size()) {
        const ssize_t n = ::write(fd, frame.data() + written,
                                  frame.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Status::internal(std::string("write frame: ") +
                                    std::strerror(errno));
        }
        written += static_cast<size_t>(n);
    }
    return Status();
}

FrameResult
readFrame(int fd, int timeout_ms, uint32_t max_bytes)
{
    std::optional<SteadyClock::time_point> deadline;
    if (timeout_ms >= 0)
        deadline = SteadyClock::now() +
                   std::chrono::milliseconds(timeout_ms);

    FrameResult result;
    std::string why;
    char header[4];
    // The caller's budget covers only the wait for the first byte.
    size_t header_got = readFull(fd, header, 1, deadline, &why);
    if (header_got == 0) {
        result.kind = why == "eof"       ? FrameResult::Kind::Eof
                      : why == "timeout" ? FrameResult::Kind::Timeout
                                         : FrameResult::Kind::Malformed;
        if (result.kind != FrameResult::Kind::Eof)
            result.error = "truncated frame length (0 of 4 bytes, " +
                           why + ")";
        return result;
    }
    // A frame is in flight: the rest must follow within the completion
    // budget, and a stall is Malformed, never Timeout -- a caller that
    // treats Timeout as an idle tick would otherwise resume reading in
    // the middle of this frame.
    if (deadline.has_value())
        deadline = std::max(*deadline,
                            SteadyClock::now() +
                                std::chrono::milliseconds(
                                    kFrameCompletionBudgetMs));
    header_got += readFull(fd, header + 1, sizeof(header) - 1, deadline,
                           &why);
    if (header_got < sizeof(header)) {
        result.kind = FrameResult::Kind::Malformed;
        result.error = "truncated frame length (" +
                       std::to_string(header_got) + " of 4 bytes, " +
                       why + ")";
        return result;
    }
    uint32_t length = 0;
    for (int k = 0; k < 4; ++k)
        length |= static_cast<uint32_t>(
                      static_cast<unsigned char>(header[k]))
                  << (8 * k);
    if (length > max_bytes) {
        result.kind = FrameResult::Kind::Oversized;
        result.error = "oversized frame length " +
                       std::to_string(length) + " (cap " +
                       std::to_string(max_bytes) + ")";
        return result;
    }

    result.payload.resize(length);
    const size_t body_got =
        readFull(fd, result.payload.data(), length, deadline, &why);
    if (body_got < length) {
        result.payload.clear();
        result.kind = FrameResult::Kind::Malformed;
        result.error = "truncated frame payload (" +
                       std::to_string(body_got) + " of " +
                       std::to_string(length) + " bytes, " + why + ")";
        return result;
    }
    result.kind = FrameResult::Kind::Payload;
    return result;
}

void
applyChildResourceLimits(int mem_limit_mb, int cpu_limit_sec)
{
    if (mem_limit_mb > 0) {
        const rlim_t bytes =
            static_cast<rlim_t>(mem_limit_mb) * 1024 * 1024;
        struct rlimit limit = {bytes, bytes};
        (void)::setrlimit(RLIMIT_AS, &limit);
    }
    if (cpu_limit_sec > 0) {
        const rlim_t sec = static_cast<rlim_t>(cpu_limit_sec);
        // Soft = hard: the first overrun delivers SIGXCPU, whose
        // default disposition kills the worker; the parent classifies
        // the death.
        struct rlimit limit = {sec, sec};
        (void)::setrlimit(RLIMIT_CPU, &limit);
    }
}

std::string
lastLines(const std::string &text, int n)
{
    if (text.empty() || n <= 0)
        return "";
    // Ignore a trailing newline so "a\nb\n" is two lines, not three.
    size_t end = text.size();
    if (text[end - 1] == '\n')
        --end;
    size_t start = end;
    int lines = 0;
    while (start > 0) {
        if (text[start - 1] == '\n' && ++lines == n)
            break;
        --start;
    }
    return text.substr(start, end - start);
}

} // namespace csched
