/**
 * @file
 * The daemon core under csched_serve (serve/server.hh) and
 * csched_workerd (dist/workerd.hh): one listener, one connection
 * lifecycle, one executor, one drain.  A front end supplies only its
 * protocol and policy through the DaemonFrontEnd hooks.
 *
 * Threads of one daemon:
 *
 *   accept loop (run(), caller's thread; 50 ms tick)
 *     -> one reader thread per live connection: reads frames and
 *        hands each to the front end; joined by the accept loop as
 *        soon as it finishes, so finished connections cost nothing
 *     -> one task queue (BoundedQueue) drained by a fixed set of
 *        executor threads, which run the jobs in the pre-forked
 *        WorkerPool (runner/worker.hh)
 *
 * Start-up forks the pool before anything listens (workers must not
 * inherit the listen fd, and WorkerPool wants a single-threaded
 * process), then binds a UNIX socket or a TCP port plus the port
 * file; a failure unwinds everything start() acquired.
 *
 * Drain (a signal with serve-style handlers, runner/shutdown.hh, or
 * stop()), in this order:
 *   1. close the listener;
 *   2. run the front end's drain step (DaemonFrontEnd::drainStep);
 *   3. close the queue -- executors answer the backlog through their
 *      tasks' `drained` flag -- wait up to the grace period for the
 *      tasks in flight, escalate to cooperative cancellation if any
 *      remain, and join the executors;
 *   4. wait up to the grace period for the readers to see their
 *      clients close, then force-close the rest, and join them;
 *   5. reap the worker pool and return 128+signum (0 after stop()).
 */

#ifndef CSCHED_RUNNER_DAEMON_HH
#define CSCHED_RUNNER_DAEMON_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "support/fault_injection.hh"
#include "support/status.hh"

namespace csched {

class WorkerPool;
struct FrameResult;

/** The tunables every daemon has; its front end's options extend it. */
struct DaemonOptions
{
    /** Worker processes to pre-fork (each front end's own default). */
    int workers;
    int memLimitMb = 0;  ///< RLIMIT_AS per worker; 0 = none
    int sendTimeoutMs;   ///< SO_SNDTIMEO per frame write
    uint32_t maxFrameBytes;  ///< frame cap for untrusted peers
    bool verbose = false;    ///< lifecycle lines on stderr
    /** Armed fault plan; nullptr = none.  Borrowed, not owned. */
    const FaultPlan *faults = nullptr;

  protected:
    DaemonOptions(int workers, int send_timeout_ms,
                  uint32_t max_frame_bytes)
        : workers(workers), sendTimeoutMs(send_timeout_ms),
          maxFrameBytes(max_frame_bytes)
    {
    }
};

/** Where a daemon listens and how it sizes and drains its core. */
struct DaemonConfig
{
    std::string name;        ///< log prefix and error context
    std::string socketPath;  ///< UNIX endpoint when set; else TCP:
    std::string host;
    uint16_t port = 0;       ///< 0 binds an ephemeral port
    std::string portFile;    ///< bound port written here when set
    int poolSize = 1;        ///< pre-forked worker processes
    int executors = 1;       ///< executor threads
    std::size_t queueCapacity = 1;
    int drainGraceMs = 0;    ///< drain steps 3 and 4
};

/**
 * Bounded MPMC queue.  push() never blocks: a full queue refuses with
 * Overloaded (the backpressure boundary), a closed one with
 * Interrupted.  A closed queue still hands out its backlog; after
 * that pop() returns false forever -- the consumers' exit condition.
 */
template <typename T>
class BoundedQueue
{
  public:
    /** @p capacity 0 means 1. */
    explicit BoundedQueue(std::size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity)
    {
    }

    Status push(T item)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_)
                return Status::interrupted(
                    "the daemon is draining; request not admitted");
            if (items_.size() >= capacity_)
                return Status::overloaded(
                    "request queue is full (" +
                    std::to_string(capacity_) +
                    " queued); retry later");
            items_.push_back(std::move(item));
        }
        ready_.notify_one();
        return Status();
    }

    /**
     * Take the oldest item, waiting up to @p timeout_ms; false on
     * timeout or when the queue is closed and empty.
     */
    bool pop(T *out, int timeout_ms)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [this] { return closed_ || !items_.empty(); });
        if (items_.empty())
            return false;
        *out = std::move(items_.front());
        items_.pop_front();
        return true;
    }

    /** Refuse further pushes and wake every waiting consumer. */
    void close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        ready_.notify_all();
    }

    bool closed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

  private:
    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<T> items_;
    bool closed_ = false;
};

/**
 * One accepted client connection: owns the fd, serializes frame
 * writes from the reader and the executors, and shuts down to wake
 * its reader.  The core has set SO_SNDTIMEO (and TCP_NODELAY) on the
 * fd, so a peer that stopped reading costs one bounded write.
 */
class Connection
{
  public:
    explicit Connection(int fd) : fd_(fd) {}
    virtual ~Connection();

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    int fd() const { return fd_; }

    /** Write one frame under the write mutex; thread-safe. */
    Status send(const std::string &payload);

    /** Shut down both directions: the reader sees end-of-stream. */
    void shutdown();

  protected:
    /** Held across each frame write. */
    std::mutex writeMutex_;

  private:
    const int fd_;
};

/**
 * A front end's stats struct of uint64_t counters, bumped from any
 * thread and read back as one consistent snapshot.
 */
template <typename Stats>
class DaemonCounters
{
  public:
    void add(uint64_t Stats::*counter)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++(stats_.*counter);
    }

    Stats snapshot() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return stats_;
    }

  private:
    mutable std::mutex mutex_;
    Stats stats_;
};

/**
 * A task on the executor queue.  @p drained is true when the drain
 * closed the queue before the task started: answer, don't run.
 */
using DaemonTask = std::function<void(bool drained)>;

/** What a front end plugs into the core; only handleFrame is required. */
class DaemonFrontEnd
{
  public:
    /**
     * A client was accepted (accept thread).  False refuses it: the
     * core closes the fd before reading a byte.
     */
    virtual bool admitConnection() { return true; }

    /** Wrap a connected fd, the id-th accepted (accept thread). */
    virtual std::shared_ptr<Connection> makeConnection(int fd,
                                                       uint64_t /*id*/)
    {
        return std::make_shared<Connection>(fd);
    }

    /** Before the frame loop (reader thread); false drops the peer. */
    virtual bool openConnection(Connection &) { return true; }

    /** One frame's payload (reader thread); false drops the peer. */
    virtual bool handleFrame(const std::shared_ptr<Connection> &,
                             std::string payload) = 0;

    /**
     * An oversized or malformed frame (reader thread).  The stream is
     * no longer framed; the core drops the peer afterwards.
     */
    virtual void handleBadFrame(Connection &, const FrameResult &) {}

    /** Drain step 2, after the listener closed. */
    virtual void drainStep() {}

  protected:
    ~DaemonFrontEnd() = default;
};

/** The core itself; see the file comment. */
class Daemon
{
  public:
    /**
     * @p front must outlive the daemon; a front end that owns its
     * Daemon declares it last, because the destructor of a started,
     * undrained daemon drains it through the hooks.
     */
    Daemon(DaemonFrontEnd &front, const DaemonOptions &options,
           DaemonConfig config);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Fork the pool, listen, start the executors.  Call while the
     * process is still single-threaded.  On failure the daemon owns
     * no resources.
     */
    Status start();

    /** Accept until a drain is requested, then drain; exit code. */
    int run();

    /** Programmatic drain trigger (thread-safe). */
    void stop() { stop_.store(true); }

    /** True once a drain was requested (stop() or a signal). */
    bool draining() const;

    /** Queue @p task; Overloaded when full, Interrupted once closed. */
    Status submit(DaemonTask task);

    /** Shut down every live connection (a front end's drain step). */
    void closeConnections();

    WorkerPool &pool() { return *pool_; }
    /** The bound TCP port after start(); 0 for a UNIX socket. */
    uint16_t port() const { return boundPort_; }

  private:
    struct Reader
    {
        std::shared_ptr<Connection> connection;
        std::thread thread;
        bool done = false;  ///< guarded by readersMutex_
    };

    Status listen();
    void readerMain(Reader *reader);
    void executorMain();
    void reapReaders();
    int drain();
    void log(const std::string &line) const;

    DaemonFrontEnd &front_;
    const DaemonOptions options_;
    const DaemonConfig config_;
    std::unique_ptr<WorkerPool> pool_;
    int listenFd_ = -1;
    uint16_t boundPort_ = 0;
    bool started_ = false;
    bool finished_ = false;
    std::atomic<bool> stop_{false};
    std::atomic<bool> forceClose_{false};

    BoundedQueue<DaemonTask> queue_;
    std::vector<std::thread> executors_;
    std::mutex pendingMutex_;
    std::condition_variable pendingDone_;
    int pending_ = 0;  ///< submitted, not finished; pendingMutex_

    std::mutex readersMutex_;
    std::condition_variable readerDone_;
    std::list<Reader> readers_;  ///< live or not yet reaped
    uint64_t nextConnectionId_ = 0;
};

/** What a daemon command line sets outside DaemonOptions. */
struct DaemonFlags
{
    FaultPlan faults;      ///< --inject; options.faults points here
    bool version = false;  ///< --version: print provenance, exit 0
};

/**
 * Consume args[*k] -- and its value, advancing *k -- when it is one
 * of the flags every daemon takes:
 *   --workers N  --mem-limit-mb N  --send-timeout-ms N
 *   --max-frame-bytes N  --verbose  --version  --inject RULES
 * Integers are strict and non-negative.  Returns false, consuming
 * nothing, for any other argument; a malformed value returns true
 * with the usage diagnostic in @p error (empty on success).
 */
bool parseDaemonFlag(const std::vector<std::string> &args, size_t *k,
                     DaemonOptions *options, DaemonFlags *flags,
                     std::string *error);

/**
 * A daemon's own flag: a string value, a strict non-negative integer,
 * or (bool) a value-less switch that clears its target, as
 * --no-timings does.
 */
struct DaemonToolFlag
{
    const char *name;
    std::variant<std::string *, int *, std::size_t *, bool *> target;
};

/**
 * Parse a whole daemon command line: the shared flags through
 * parseDaemonFlag, the rest against @p tool_flags.  Stops at
 * --version.  False with the usage diagnostic in @p error on a
 * missing or malformed value or an unknown option.
 */
bool parseDaemonArgs(const std::vector<std::string> &args,
                     const std::vector<DaemonToolFlag> &tool_flags,
                     DaemonOptions *options, DaemonFlags *flags,
                     std::string *error);

} // namespace csched

#endif // CSCHED_RUNNER_DAEMON_HH
