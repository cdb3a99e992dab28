/**
 * @file
 * The scheduler-as-a-service daemon: accepts schedule requests over a
 * UNIX-domain socket, dispatches them onto the pre-forked worker pool
 * (runner/worker.hh), and returns one structured response per request
 * -- under overload, under worker crashes, and through a drain.
 *
 * Architecture: the daemon core (runner/daemon.hh) owns the accept
 * loop, one reader thread per live connection, the bounded admission
 * queue, the dispatcher threads (the core's executors, --dispatchers
 * of them) and the drain sequence.  This front end is the protocol
 * and the policy on top:
 *
 *   reader: decode frames, apply admission control, reply to
 *           rejections inline, queue the rest
 *   dispatcher: shed aged-out requests, consult the result cache /
 *           single-flight table, run jobs in isolated workers, reply
 *
 * Robustness properties, each with a dedicated mechanism:
 *
 *  - Admission control / backpressure: the queue is bounded; a full
 *    queue or a crash-looping pool refuses with a structured
 *    `overloaded` reply instead of buffering unbounded work.  Each
 *    request's deadline is fixed at admission, so time spent queued
 *    counts against it and dispatchers shed aged-out requests without
 *    spending a worker.
 *  - Worker supervision: dead workers are respawned with the runner's
 *    deterministic jittered backoff; per-request retries are bounded
 *    by the policy's retry budget; a *crash-looping* pool (threshold
 *    consecutive worker deaths) trips the server into a degraded
 *    window during which admissions are refused, bounding the blast
 *    radius of a poisoned request stream.
 *  - Graceful drain: SIGINT/SIGTERM/SIGHUP (serve-style handlers,
 *    runner/shutdown.hh) run the core's drain with no front-end step
 *    and --drain-deadline-ms of grace: stop admissions, let in-flight
 *    jobs finish up to the deadline, answer everything still queued
 *    with `interrupted`, then escalate to cooperative cancellation for
 *    stragglers.  Exit code is 128+signum for a signal-driven drain,
 *    0 for a programmatic stop().
 *  - Slow clients: replies are written under SO_SNDTIMEO, so a peer
 *    that stopped reading costs one bounded write, not a parked
 *    dispatcher.
 *
 * Fault points (deterministic, support/fault_injection.hh):
 * "serve.accept" in scope "serve/accept" (Fail closes the fresh
 * connection before reading -- simulated accept pressure; safe for the
 * exactly-one-reply proof because nothing was read), "serve.admit" and
 * "serve.reply" in per-connection scopes "serve/conn-<n>" (both always
 * produce a structured reply; see Session in server.cc for the reply
 * rewrite rule).
 */

#ifndef CSCHED_SERVE_SERVER_HH
#define CSCHED_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "runner/daemon.hh"
#include "serve/protocol.hh"
#include "serve/request_queue.hh"
#include "serve/result_cache.hh"
#include "support/fault_injection.hh"
#include "support/status.hh"

namespace csched {

/**
 * Tunables of one daemon instance, over the DaemonOptions defaults
 * workers 2, sendTimeoutMs 2000, maxFrameBytes kServeMaxFrameBytes.
 */
struct ServeOptions : DaemonOptions
{
    ServeOptions() : DaemonOptions(2, 2000, kServeMaxFrameBytes) {}

    std::string socketPath;
    int dispatchers = 2;        ///< dispatcher threads
    std::size_t queueCapacity = 64;
    std::size_t cacheCapacity = 128;  ///< 0 disables the result cache
    /** Deadline for requests that do not bring their own; 0 = none. */
    int defaultDeadlineMs = 10000;
    int retries = 1;            ///< per-request retry budget
    int drainDeadlineMs = 2000; ///< in-flight grace before escalation
    /** Consecutive worker deaths that trip the degraded window. */
    int crashLoopThreshold = 3;
    int degradeCooldownMs = 1000;
    bool timings = true;        ///< include queueMs in replies
};

/** Monotonic counters; a consistent-enough snapshot via stats(). */
struct ServeStats
{
    uint64_t connections = 0;
    uint64_t acceptRejected = 0;  ///< serve.accept fault closures
    uint64_t requestsRead = 0;    ///< frames that decoded to requests
    uint64_t malformedFrames = 0;
    uint64_t oversizedFrames = 0;
    uint64_t invalidRequests = 0;
    uint64_t admitted = 0;
    uint64_t rejectedOverloaded = 0;
    uint64_t shedDeadline = 0;    ///< aged out in queue / follower wait
    uint64_t interruptedReplies = 0;
    uint64_t cacheHits = 0;
    uint64_t coalesced = 0;
    uint64_t jobsRun = 0;
    uint64_t workerDeaths = 0;    ///< terminal worker-death results
    uint64_t healedRetries = 0;   ///< ok after >= 1 dead worker
    uint64_t degradeTrips = 0;
    uint64_t repliesSent = 0;
    uint64_t replyWriteFailures = 0;
};

class Server : private DaemonFrontEnd
{
  public:
    explicit Server(ServeOptions options);

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Fork the worker pool, bind the socket, start the dispatchers.
     * Call while the process is still single-threaded (the pool forks
     * here).  The listen socket is bound *after* the fork so workers
     * never inherit it.
     */
    Status start() { return daemon_.start(); }

    /**
     * Serve until a drain is requested (signal with serve-style
     * handlers installed, or stop()), then drain and return the exit
     * code: 128+signum for a signal, 0 for stop().  Runs the accept
     * loop on the calling thread.
     */
    int run() { return daemon_.run(); }

    /** Programmatic drain trigger (tests, --max-lifetime drivers). */
    void stop() { daemon_.stop(); }

    ServeStats stats() const;
    const std::string &socketPath() const
    {
        return options_.socketPath;
    }

  private:
    // DaemonFrontEnd.
    bool admitConnection() override;
    std::shared_ptr<Connection> makeConnection(int fd,
                                               uint64_t id) override;
    bool handleFrame(const std::shared_ptr<Connection> &connection,
                     std::string payload) override;
    void handleBadFrame(Connection &connection,
                        const FrameResult &frame) override;

    void handle(QueuedRequest &item, bool drained);
    JobResult runLeader(const ServeRequest &request,
                        std::chrono::steady_clock::time_point deadline,
                        std::string *server_note);
    /** Admission gate; fills @p why when refusing. */
    bool degraded(std::string *why) const;
    void noteWorkerHealth(const JobResult &result);
    void sendReply(Session &session, const ServeResponse &response);

    ServeOptions options_;
    ResultCache cache_;
    FaultScope acceptScope_;  ///< "serve/accept"; accept thread only

    /** Crash-loop supervision state. */
    std::atomic<int> consecutiveWorkerDeaths_{0};
    std::atomic<int64_t> degradedUntilMs_{0};  ///< steady-clock ms
    std::atomic<uint64_t> degradeTrips_{0};

    DaemonCounters<ServeStats> counters_;

    Daemon daemon_;  ///< last: its destructor drains through the hooks
};

} // namespace csched

#endif // CSCHED_SERVE_SERVER_HH
