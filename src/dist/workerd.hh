/**
 * @file
 * The remote worker daemon: a local pre-forked WorkerPool
 * (runner/worker.hh) behind a TCP listener, executing grid jobs
 * dispatched by a RemoteWorkerPool (dist/remote_pool.hh) over the
 * csched-dist-v1 protocol (dist/protocol.hh).
 *
 * The daemon is a pure executor: it owns no grid state, no journal,
 * and no retry policy beyond what each job frame carries.  Every job
 * runs through runJobIsolated() on the daemon's own WorkerPool, so a
 * job that segfaults, hangs, or OOMs on a remote host is contained as
 * exactly the per-cell outcome --isolate would have produced locally
 * -- which is what keeps dist-mode reports byte-identical to
 * in-process runs.  Job-level `interrupted` results are *not*
 * propagated into a daemon drain (propagate_interrupt=false): the
 * interrupt belongs to the client's grid.
 *
 * Topology: the daemon core (runner/daemon.hh) -- one accept loop,
 * one reader thread per live connection, and one executor thread per
 * pool worker draining an unbounded job queue, so a job waiting for a
 * worker costs one queued frame, not a parked thread.  The capacity
 * is advertised in the welcome message so clients self-limit.
 * Heartbeat pings are answered inline by the reader.
 *
 * Untrusted peers: a connection that sends garbage, an oversized
 * length prefix, or any frame that fails decodeDistMessage() is
 * dropped -- counted in the stats, never able to crash or wedge the
 * daemon.
 *
 * Shutdown: serve-style, through the core's drain with a grace of
 * zero.  The first SIGINT/SIGTERM/SIGHUP stops admissions; the drain
 * step closes every connection (clients reassign the lost leases --
 * that is the dist layer's healing path, so the drain does not wait
 * for stragglers); in-flight jobs are escalated to cooperative
 * cancellation at once; the pool is reaped; exit 128+signum.  The
 * deterministic `workerd.crash` fault point (hit once per received
 * job frame, scope "workerd") instead dies by SIGKILL -- the
 * reproducible stand-in for a daemon crash in tests and CI.
 */

#ifndef CSCHED_DIST_WORKERD_HH
#define CSCHED_DIST_WORKERD_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "dist/protocol.hh"
#include "runner/daemon.hh"
#include "support/fault_injection.hh"

namespace csched {

/**
 * Everything a workerd needs to start, over the DaemonOptions defaults
 * workers 0 (= hardware concurrency), sendTimeoutMs 5000,
 * maxFrameBytes kDistMaxFrameBytes.
 */
struct WorkerdOptions : DaemonOptions
{
    WorkerdOptions() : DaemonOptions(0, 5000, kDistMaxFrameBytes) {}

    /** Numeric address to bind; loopback by default. */
    std::string host = "127.0.0.1";
    /** TCP port; 0 binds an ephemeral port (see port()). */
    uint16_t port = 0;
    /**
     * When set, the bound port number is written here (atomically,
     * as one decimal line) after listen succeeds -- how shell
     * harnesses discover an ephemeral port.
     */
    std::string portFile;
};

/** Observability counters, snapshot via WorkerdServer::stats(). */
struct WorkerdStats
{
    uint64_t connections = 0;
    uint64_t handshakeFailures = 0;
    uint64_t malformedFrames = 0;
    uint64_t oversizedFrames = 0;
    uint64_t invalidMessages = 0;
    uint64_t pings = 0;
    uint64_t jobsRun = 0;
    uint64_t resultsSent = 0;
    uint64_t resultsDropped = 0;  ///< finished during/after the drain
};

/**
 * The daemon itself, usable in-process (tests, the bench harness
 * forks a child that runs one of these) or behind tools/csched_workerd.
 */
class WorkerdServer : private DaemonFrontEnd
{
  public:
    explicit WorkerdServer(WorkerdOptions options);

    WorkerdServer(const WorkerdServer &) = delete;
    WorkerdServer &operator=(const WorkerdServer &) = delete;

    /**
     * Pre-fork the worker pool (call while still single-threaded),
     * bind + listen, and write the port file.  On failure the daemon
     * is unusable and owns no resources.
     */
    Status start() { return daemon_.start(); }

    /**
     * Serve until a drain (signal via runner/shutdown.hh serve-style
     * handlers, or stop()).  Returns the process exit code:
     * 128+signum after a signal, 0 after stop().
     */
    int run() { return daemon_.run(); }

    /** Ask run() to drain and return (thread-safe). */
    void stop() { daemon_.stop(); }

    /** The bound TCP port (after start()); 0 before. */
    uint16_t port() const { return daemon_.port(); }

    WorkerdStats stats() const { return counters_.snapshot(); }

  private:
    // DaemonFrontEnd.
    bool admitConnection() override;
    bool openConnection(Connection &connection) override;
    bool handleFrame(const std::shared_ptr<Connection> &connection,
                     std::string payload) override;
    void handleBadFrame(Connection &connection,
                        const FrameResult &frame) override;
    void drainStep() override { daemon_.closeConnections(); }

    void runJob(Connection &connection, uint64_t id,
                const WorkerJobFrame &frame);
    void hitCrashPoint();

    WorkerdOptions options_;
    const int capacity_;
    std::mutex crashMutex_;
    FaultScope crashScope_;  ///< guarded by crashMutex_

    DaemonCounters<WorkerdStats> counters_;

    Daemon daemon_;  ///< last: its destructor drains through the hooks
};

} // namespace csched

#endif // CSCHED_DIST_WORKERD_HH
