#include "serve/server.hh"

#include <chrono>
#include <cstdio>

#include "eval/experiment.hh"
#include "runner/worker.hh"
#include "support/rng.hh"
#include "support/subprocess.hh"

namespace csched {

namespace {

using Clock = std::chrono::steady_clock;

int64_t
steadyMs(Clock::time_point when = Clock::now())
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               when.time_since_epoch())
        .count();
}

double
elapsedMs(Clock::time_point since, Clock::time_point now)
{
    return std::chrono::duration<double, std::milli>(now - since)
        .count();
}

/** The core's shape: --dispatchers executors, --drain-deadline-ms. */
DaemonConfig
daemonConfig(const ServeOptions &options)
{
    DaemonConfig config;
    config.name = "csched_serve";
    config.socketPath = options.socketPath;
    config.poolSize = options.workers;
    config.executors = options.dispatchers;
    config.queueCapacity = options.queueCapacity;
    config.drainGraceMs = options.drainDeadlineMs;
    return config;
}

} // namespace

/**
 * One accepted connection: the core's Connection plus its fault
 * scopes, both keyed "serve/conn-<id>".  A queued request holds its
 * session, so a reply still flushes after the reader exited on client
 * EOF.  "serve.admit" is hit by the reader alone; "serve.reply" inside
 * send(), under the write mutex.  A reply Fail rule does NOT drop the
 * reply -- dropping would break the exactly-one-reply contract the
 * load harness proves -- it *replaces* the payload with a structured
 * injected-error response carrying the same request id.  Slow rules
 * delay the write, exercising the peer's patience.
 */
class Session : public Connection
{
  public:
    Session(int fd, uint64_t id, const FaultPlan *faults)
        : Connection(fd),
          admitScope(faults, "serve/conn-" + std::to_string(id)),
          replyScope_(faults, admitScope.key())
    {
    }

    /**
     * Send exactly one reply frame for @p response.  A failed write
     * (dead or stuck peer) is returned, not retried: the server
     * records it but cannot fix it.
     */
    Status send(const ServeResponse &response, bool timings)
    {
        std::lock_guard<std::mutex> lock(writeMutex_);
        ServeResponse outgoing = response;
        try {
            replyScope_.hit("serve.reply");
        } catch (const StatusError &err) {
            outgoing.status = errorCodeName(err.status.code());
            outgoing.result.outcome = JobOutcome::Failed;
            outgoing.result.error = err.status.code();
            outgoing.result.diagnostic =
                "reply fault injected: " + err.status.message();
        }
        return writeFrame(fd(), encodeServeResponse(outgoing, timings));
    }

    FaultScope admitScope;  ///< reader thread only

  private:
    FaultScope replyScope_;  ///< guarded by writeMutex_
};

Server::Server(ServeOptions options)
    : options_(std::move(options)), cache_(options_.cacheCapacity),
      acceptScope_(options_.faults, "serve/accept"),
      daemon_(*this, options_, daemonConfig(options_))
{
}

bool
Server::admitConnection()
{
    counters_.add(&ServeStats::connections);
    try {
        acceptScope_.hit("serve.accept");
    } catch (const StatusError &) {
        // Simulated accept pressure: closed before reading a single
        // byte, so no request is ever half-owned by the server.
        counters_.add(&ServeStats::acceptRejected);
        return false;
    }
    return true;
}

std::shared_ptr<Connection>
Server::makeConnection(int fd, uint64_t id)
{
    return std::make_shared<Session>(fd, id, options_.faults);
}

void
Server::handleBadFrame(Connection &connection, const FrameResult &frame)
{
    if (frame.kind == FrameResult::Kind::Oversized) {
        // Distinct, structured refusal -- then the core drops the
        // connection, because the stream is no longer framed (the
        // oversized payload was not consumed).
        counters_.add(&ServeStats::oversizedFrames);
        sendReply(static_cast<Session &>(connection),
                  makeRejection(ServeRequest(),
                                Status::invalidSpec(
                                    "refused request frame: " +
                                    frame.error)));
        return;
    }
    // Truncation or an I/O error: the peer is gone or garbling;
    // nothing addressable to reply to.
    counters_.add(&ServeStats::malformedFrames);
}

bool
Server::handleFrame(const std::shared_ptr<Connection> &connection,
                    std::string payload)
{
    auto session = std::static_pointer_cast<Session>(connection);
    uint64_t salvaged_id = 0;
    auto decoded = decodeServeRequest(payload, &salvaged_id);
    if (!decoded.ok()) {
        counters_.add(&ServeStats::invalidRequests);
        ServeRequest anonymous;
        anonymous.id = salvaged_id;
        sendReply(*session, makeRejection(anonymous, decoded.status()));
        return true;  // framing is intact; keep serving the peer
    }
    counters_.add(&ServeStats::requestsRead);
    const ServeRequest &request = *decoded;

    // --- Admission control ----------------------------------------
    Status verdict;
    try {
        session->admitScope.hit("serve.admit");
    } catch (const StatusError &err) {
        verdict = err.status;
    }
    if (verdict.ok() && daemon_.draining())
        verdict = Status::interrupted(
            "the daemon is draining; request not admitted");
    std::string why;
    if (verdict.ok() && degraded(&why))
        verdict = Status::overloaded(why);
    if (verdict.ok()) {
        QueuedRequest item;
        item.session = session;
        item.request = request;
        item.admitted = Clock::now();
        const int deadline_ms = request.deadlineMs > 0
                                    ? request.deadlineMs
                                    : options_.defaultDeadlineMs;
        item.deadline =
            deadline_ms > 0
                ? item.admitted + std::chrono::milliseconds(deadline_ms)
                : Clock::time_point::max();
        verdict = daemon_.submit(
            [this, item = std::move(item)](bool drained) mutable {
                handle(item, drained);
            });
        if (verdict.ok())
            counters_.add(&ServeStats::admitted);
    }
    if (!verdict.ok()) {
        if (verdict.code() == ErrorCode::Overloaded)
            counters_.add(&ServeStats::rejectedOverloaded);
        else if (verdict.code() == ErrorCode::Interrupted)
            counters_.add(&ServeStats::interruptedReplies);
        sendReply(*session, makeRejection(request, verdict));
    }
    return true;
}

void
Server::handle(QueuedRequest &item, bool drained)
{
    const Clock::time_point now = Clock::now();
    const double queue_ms = elapsedMs(item.admitted, now);

    // Still queued when the drain started: answer, don't run.
    if (drained) {
        counters_.add(&ServeStats::interruptedReplies);
        ServeResponse reply = makeRejection(
            item.request, Status::interrupted(
                              "the daemon drained before this request "
                              "was dispatched"));
        reply.queueMs = queue_ms;
        sendReply(*item.session, reply);
        return;
    }

    // Aged out while queued: shed without spending a worker.
    if (now >= item.deadline) {
        counters_.add(&ServeStats::shedDeadline);
        ServeResponse reply = makeRejection(
            item.request,
            Status::timedOut("deadline expired after " +
                             std::to_string(
                                 static_cast<long>(queue_ms)) +
                             " ms in the admission queue"));
        reply.queueMs = queue_ms;
        sendReply(*item.session, reply);
        return;
    }

    const std::string key = cacheKey(item.request);
    ServeResponse reply;
    reply.id = item.request.id;
    reply.queueMs = queue_ms;

    ResultCache::Ticket ticket = cache_.begin(key);
    if (ticket.cached) {
        counters_.add(&ServeStats::cacheHits);
        reply.cached = true;
        reply.result = ticket.result;
    } else if (ticket.coalesced) {
        counters_.add(&ServeStats::coalesced);
        JobResult result;
        if (!ResultCache::waitFollower(ticket.flight, item.deadline,
                                       &result)) {
            counters_.add(&ServeStats::shedDeadline);
            ServeResponse shed = makeRejection(
                item.request,
                Status::timedOut("deadline expired while coalesced "
                                 "onto an identical in-flight "
                                 "request"));
            shed.queueMs = queue_ms;
            sendReply(*item.session, shed);
            return;
        }
        reply.coalesced = true;
        reply.result = result;
    } else {
        std::string server_note;
        JobResult result =
            runLeader(item.request, item.deadline, &server_note);
        cache_.finish(key, ticket.flight, result);
        reply.result = result;
        reply.serverDiagnostic = server_note;
    }

    // The identity fields come from the spec echo; make sure a
    // synthesized failure still carries them.
    if (reply.result.workload.empty())
        reply.result.workload = item.request.workload;
    if (reply.result.machine.empty())
        reply.result.machine = item.request.machine;
    if (reply.result.algorithm.empty())
        reply.result.algorithm = item.request.algorithm;
    reply.status = serveStatusOf(reply.result);
    if (reply.result.outcome == JobOutcome::Interrupted)
        counters_.add(&ServeStats::interruptedReplies);
    sendReply(*item.session, reply);
}

JobResult
Server::runLeader(const ServeRequest &request,
                  Clock::time_point deadline, std::string *server_note)
{
    JobResult result;
    result.workload = request.workload;
    result.machine = request.machine;
    result.algorithm = request.algorithm;

    std::string parse_error;
    auto algorithm =
        parseAlgorithmSpec(request.algorithm, &parse_error);
    if (!algorithm.has_value()) {
        result.outcome = JobOutcome::Failed;
        result.error = ErrorCode::InvalidSpec;
        result.diagnostic = "algorithm: " + parse_error;
        return result;
    }

    JobSpec spec;
    spec.workload = request.workload;
    spec.machine = request.machine;
    spec.algorithm = *algorithm;
    spec.computeSpeedup = request.computeSpeedup;

    JobPolicy policy;
    policy.retries = options_.retries;
    policy.faults = options_.faults;
    if (deadline != Clock::time_point::max()) {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now())
                .count();
        policy.deadlineMs =
            static_cast<int>(remaining > 0 ? remaining : 1);
    }

    counters_.add(&ServeStats::jobsRun);
    result = runJobIsolated(spec, policy, daemon_.pool());
    noteWorkerHealth(result);

    if (result.retriedThenOk()) {
        // The grid's deterministic backoff is a pure function of
        // (job key, attempt), so the delays the supervisor actually
        // slept can be recomputed here for the reply diagnostic
        // without perturbing the result itself.
        counters_.add(&ServeStats::healedRetries);
        std::string backoffs;
        for (int attempt = 2; attempt <= result.attempts; ++attempt) {
            if (!backoffs.empty())
                backoffs += ", ";
            backoffs += std::to_string(
                retryBackoffMs(jobKey(spec), attempt));
        }
        *server_note = "healed after " +
                       std::to_string(result.attempts) +
                       " attempts; retry backoff ms: [" + backoffs +
                       "]";
    }
    return result;
}

bool
Server::degraded(std::string *why) const
{
    const int64_t until = degradedUntilMs_.load();
    if (until == 0 || steadyMs() >= until)
        return false;
    *why = "worker pool is crash-looping; admissions refused for a "
           "cooldown window";
    return true;
}

void
Server::noteWorkerHealth(const JobResult &result)
{
    const bool worker_death =
        !result.ok() && (result.error == ErrorCode::WorkerCrashed ||
                         result.error == ErrorCode::WorkerKilled);
    if (!worker_death) {
        if (result.ok())
            consecutiveWorkerDeaths_.store(0);
        return;
    }
    counters_.add(&ServeStats::workerDeaths);
    const int run = consecutiveWorkerDeaths_.fetch_add(1) + 1;
    if (run < options_.crashLoopThreshold)
        return;
    // Trip the breaker: refuse admissions for a jittered cooldown.
    // The jitter is deterministic in the trip ordinal, same recipe as
    // the retry backoff, so degraded windows are reproducible.
    const uint64_t trip = degradeTrips_.fetch_add(1) + 1;
    const double factor = jitterFactor("serve.degrade", trip);
    const int64_t cooldown = static_cast<int64_t>(
        static_cast<double>(options_.degradeCooldownMs) * factor);
    degradedUntilMs_.store(steadyMs() + cooldown);
    consecutiveWorkerDeaths_.store(0);
    if (options_.verbose)
        std::fprintf(stderr,
                     "[csched_serve] crash loop detected (%d "
                     "consecutive worker deaths); degraded for %lld "
                     "ms\n",
                     run, static_cast<long long>(cooldown));
}

void
Server::sendReply(Session &session, const ServeResponse &response)
{
    const Status sent = session.send(response, options_.timings);
    if (sent.ok())
        counters_.add(&ServeStats::repliesSent);
    else
        counters_.add(&ServeStats::replyWriteFailures);
}

ServeStats
Server::stats() const
{
    ServeStats out = counters_.snapshot();
    out.degradeTrips = degradeTrips_.load();
    return out;
}

} // namespace csched
