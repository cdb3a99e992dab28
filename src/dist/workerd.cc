#include "dist/workerd.hh"

#include <csignal>
#include <cstdio>
#include <limits>

#include "runner/thread_pool.hh"
#include "runner/worker.hh"
#include "support/subprocess.hh"

namespace csched {

namespace {

/** Budget for a new connection's hello frame. */
constexpr int kHandshakeTimeoutMs = 5000;

/**
 * The core's shape: one executor per pool worker over an unbounded
 * queue, and no drain grace -- the drain step drops every connection,
 * so in-flight jobs are escalated at once.
 */
DaemonConfig
daemonConfig(const WorkerdOptions &options, int capacity)
{
    DaemonConfig config;
    config.name = "csched_workerd";
    config.host = options.host;
    config.port = options.port;
    config.portFile = options.portFile;
    config.poolSize = capacity;
    config.executors = capacity;
    config.queueCapacity = std::numeric_limits<std::size_t>::max();
    config.drainGraceMs = 0;
    return config;
}

} // namespace

WorkerdServer::WorkerdServer(WorkerdOptions options)
    : options_(std::move(options)),
      capacity_(options_.workers > 0 ? options_.workers
                                     : ThreadPool::defaultConcurrency()),
      crashScope_(options_.faults, "workerd"),
      daemon_(*this, options_, daemonConfig(options_, capacity_))
{
}

bool
WorkerdServer::admitConnection()
{
    counters_.add(&WorkerdStats::connections);
    return true;
}

void
WorkerdServer::hitCrashPoint()
{
    // One deterministic hit per received job frame, counters shared
    // daemon-wide: `workerd.crash=fail:nth=1` kills the daemon on its
    // first job.  SIGKILL, because the failure being modelled is a
    // *crash* -- no drain, no goodbye frames, leases heal it.
    std::lock_guard<std::mutex> lock(crashMutex_);
    try {
        crashScope_.hit("workerd.crash");
    } catch (const StatusError &) {
        if (options_.verbose)
            std::fprintf(stderr, "[csched_workerd] workerd.crash "
                                 "fired; dying by SIGKILL\n");
        ::raise(SIGKILL);
    }
}

void
WorkerdServer::runJob(Connection &connection, uint64_t id,
                      const WorkerJobFrame &frame)
{
    // During a drain nothing runs or is sent: connections are being
    // torn down, and the client's lease layer reassigns the job.
    if (daemon_.draining()) {
        counters_.add(&WorkerdStats::resultsDropped);
        return;
    }
    const BaselineMemo memo = frame.baselineMemo();
    counters_.add(&WorkerdStats::jobsRun);
    // propagate_interrupt=false: an `interrupted` outcome here
    // belongs to the *client's* grid (injected runner.interrupt
    // inside the job); it must not drain this daemon.
    const JobResult result = runJobIsolated(
        frame.spec, frame.policy(), daemon_.pool(),
        memo.empty() ? nullptr : &memo, /*propagate_interrupt=*/false);
    if (!daemon_.draining() &&
        connection.send(encodeDistResult(id, result)).ok())
        counters_.add(&WorkerdStats::resultsSent);
    else
        counters_.add(&WorkerdStats::resultsDropped);
}

bool
WorkerdServer::openConnection(Connection &connection)
{
    // Handshake: the first frame must be a hello; everything else --
    // silence, garbage, a stray HTTP request -- costs the peer its
    // connection and nothing more.
    const FrameResult frame = readFrame(
        connection.fd(), kHandshakeTimeoutMs, options_.maxFrameBytes);
    if (frame.ok()) {
        auto decoded = decodeDistMessage(frame.payload);
        if (decoded.ok() && decoded->kind == DistMessage::Kind::Hello &&
            connection.send(encodeDistWelcome(capacity_)).ok())
            return true;
    }
    counters_.add(&WorkerdStats::handshakeFailures);
    return false;
}

void
WorkerdServer::handleBadFrame(Connection &, const FrameResult &frame)
{
    // Either way the stream is no longer framed (an oversized payload
    // was not consumed); the connection is unusable.
    if (frame.kind == FrameResult::Kind::Oversized)
        counters_.add(&WorkerdStats::oversizedFrames);
    else
        counters_.add(&WorkerdStats::malformedFrames);
}

bool
WorkerdServer::handleFrame(const std::shared_ptr<Connection> &connection,
                           std::string payload)
{
    auto decoded = decodeDistMessage(payload);
    if (!decoded.ok()) {
        // Framing intact but the peer speaks something else; a
        // broken client would only keep garbling, so drop it.
        counters_.add(&WorkerdStats::invalidMessages);
        return false;
    }
    if (decoded->kind == DistMessage::Kind::Ping) {
        counters_.add(&WorkerdStats::pings);
        return connection->send(encodeDistPong(decoded->seq)).ok();
    }
    if (decoded->kind == DistMessage::Kind::Job) {
        hitCrashPoint();
        const Status queued = daemon_.submit(
            [this, connection, id = decoded->id,
             frame = std::move(*decoded->job)](bool) {
                runJob(*connection, id, frame);
            });
        if (!queued.ok())
            counters_.add(&WorkerdStats::resultsDropped);
        return true;
    }
    // A client has no business sending welcome/result/pong.
    counters_.add(&WorkerdStats::invalidMessages);
    return false;
}

} // namespace csched
