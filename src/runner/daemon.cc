#include "runner/daemon.hh"

#include <algorithm>
#include <cstdio>

#include <sys/socket.h>
#include <unistd.h>

#include "runner/shutdown.hh"
#include "runner/worker.hh"
#include "support/atomic_file.hh"
#include "support/logging.hh"
#include "support/socket.hh"
#include "support/str.hh"
#include "support/subprocess.hh"

namespace csched {

namespace {

/** Accept-loop tick: how often the drain flags are polled. */
constexpr int kAcceptTickMs = 50;

/** Reader idle tick; a timed-out read is idle, never a torn frame. */
constexpr int kReadTickMs = 200;

/** Executor idle tick. */
constexpr int kExecutorTickMs = 200;

/**
 * The value of flag args[*k] into @p out, advancing *k; false with
 * the usage diagnostic in @p error when it is missing.
 */
bool
flagValue(const std::vector<std::string> &args, size_t *k,
          std::string *out, std::string *error)
{
    if (*k + 1 >= args.size()) {
        *error = args[*k] + " needs a value";
        return false;
    }
    *out = args[++*k];
    return true;
}

/** flagValue for a strict non-negative integer. */
bool
flagCount(const std::vector<std::string> &args, size_t *k, int *out,
          std::string *error)
{
    const std::string &flag = args[*k];
    std::string text;
    if (!flagValue(args, k, &text, error))
        return false;
    const auto parsed = parseNonNegativeIntFlag(text);
    if (!parsed.has_value()) {
        *error = flag + " expects a non-negative integer, got '" +
                 text + "'";
        return false;
    }
    *out = *parsed;
    return true;
}

} // namespace

Connection::~Connection()
{
    ::close(fd_);
}

Status
Connection::send(const std::string &payload)
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    return writeFrame(fd_, payload);
}

void
Connection::shutdown()
{
    (void)::shutdown(fd_, SHUT_RDWR);
}

Daemon::Daemon(DaemonFrontEnd &front, const DaemonOptions &options,
               DaemonConfig config)
    : front_(front), options_(options), config_(std::move(config)),
      queue_(config_.queueCapacity)
{
}

Daemon::~Daemon()
{
    if (started_ && !finished_) {
        stop();
        (void)drain();
    }
}

Status
Daemon::listen()
{
    if (!config_.socketPath.empty()) {
        auto fd = listenUnix(config_.socketPath);
        if (!fd.ok())
            return fd.status();
        listenFd_ = *fd;
        return Status();
    }
    auto fd = listenTcp(config_.host, config_.port);
    if (!fd.ok())
        return fd.status();
    listenFd_ = *fd;
    auto bound = boundTcpPort(listenFd_);
    if (!bound.ok())
        return bound.status();
    boundPort_ = *bound;
    if (!config_.portFile.empty())
        return writeFileAtomic(config_.portFile,
                               std::to_string(boundPort_) + "\n")
            .withContext("--port-file");
    return Status();
}

Status
Daemon::start()
{
    pool_ = std::make_unique<WorkerPool>(config_.poolSize,
                                         options_.memLimitMb);
    const Status listening = listen();
    if (!listening.ok()) {
        if (listenFd_ >= 0)
            ::close(listenFd_);
        listenFd_ = -1;
        pool_.reset();
        return listening.withContext(config_.name);
    }

    for (int i = 0; i < config_.executors; ++i)
        executors_.emplace_back(&Daemon::executorMain, this);
    started_ = true;
    log("listening on " +
        (config_.socketPath.empty()
             ? config_.host + ":" + std::to_string(boundPort_)
             : config_.socketPath) +
        " (" + std::to_string(config_.poolSize) + " workers, " +
        std::to_string(config_.executors) + " executors)");
    return Status();
}

bool
Daemon::draining() const
{
    return stop_.load() || drainRequested();
}

int
Daemon::run()
{
    CSCHED_ASSERT(started_, "Daemon::run() before start()");
    while (!draining()) {
        reapReaders();
        auto client = acceptClient(listenFd_, kAcceptTickMs);
        if (!client.ok()) {
            if (client.status().code() != ErrorCode::Timeout)
                CSCHED_WARN("accept failed: ",
                            client.status().toString());
            continue;
        }
        if (!front_.admitConnection()) {
            ::close(*client);
            continue;
        }
        // Frames stream back-to-back on TCP connections; without
        // NODELAY each stalls on Nagle + delayed ACK (~40 ms).
        setTcpNoDelay(*client);
        setSendTimeout(*client, options_.sendTimeoutMs);
        std::lock_guard<std::mutex> lock(readersMutex_);
        Reader &reader = readers_.emplace_back();
        reader.connection =
            front_.makeConnection(*client, ++nextConnectionId_);
        reader.thread = std::thread(&Daemon::readerMain, this, &reader);
    }
    return drain();
}

void
Daemon::readerMain(Reader *reader)
{
    const std::shared_ptr<Connection> &connection = reader->connection;
    if (front_.openConnection(*connection)) {
        for (;;) {
            FrameResult frame = readFrame(
                connection->fd(), kReadTickMs, options_.maxFrameBytes);
            if (frame.kind == FrameResult::Kind::Eof)
                break;
            if (frame.kind == FrameResult::Kind::Timeout) {
                // Idle tick.  A draining reader keeps serving until
                // its client closes; forceClose_ is the fallback for
                // clients that outstay the grace period.
                if (forceClose_.load())
                    break;
                continue;
            }
            if (frame.kind != FrameResult::Kind::Payload) {
                front_.handleBadFrame(*connection, frame);
                break;
            }
            if (!front_.handleFrame(connection,
                                    std::move(frame.payload)))
                break;
        }
    }
    {
        std::lock_guard<std::mutex> lock(readersMutex_);
        reader->done = true;
    }
    readerDone_.notify_all();
}

void
Daemon::reapReaders()
{
    std::list<Reader> finished;
    {
        std::lock_guard<std::mutex> lock(readersMutex_);
        for (auto it = readers_.begin(); it != readers_.end();) {
            auto next = std::next(it);
            if (it->done)
                finished.splice(finished.end(), readers_, it);
            it = next;
        }
    }
    for (Reader &reader : finished)
        reader.thread.join();
}

void
Daemon::closeConnections()
{
    std::lock_guard<std::mutex> lock(readersMutex_);
    for (Reader &reader : readers_)
        reader.connection->shutdown();
}

Status
Daemon::submit(DaemonTask task)
{
    {
        std::lock_guard<std::mutex> lock(pendingMutex_);
        ++pending_;
    }
    const Status pushed = queue_.push(std::move(task));
    if (!pushed.ok()) {
        {
            std::lock_guard<std::mutex> lock(pendingMutex_);
            --pending_;
        }
        pendingDone_.notify_all();
    }
    return pushed;
}

void
Daemon::executorMain()
{
    DaemonTask task;
    for (;;) {
        if (queue_.pop(&task, kExecutorTickMs)) {
            task(queue_.closed());
            task = nullptr;
            {
                std::lock_guard<std::mutex> lock(pendingMutex_);
                --pending_;
            }
            pendingDone_.notify_all();
        } else if (queue_.closed()) {
            break;
        }
    }
}

int
Daemon::drain()
{
    const int signum = interruptSignal();
    const auto grace = std::chrono::milliseconds(config_.drainGraceMs);
    log(std::string("draining (") + (signum != 0 ? "signal" : "stop") +
        "); " + std::to_string(queue_.size()) + " queued, grace " +
        std::to_string(config_.drainGraceMs) + " ms");
    stop();

    // 1. No new connections.
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        if (!config_.socketPath.empty())
            ::unlink(config_.socketPath.c_str());
        listenFd_ = -1;
    }

    // 2. The front end's own step.
    front_.drainStep();

    // 3. No new tasks; the backlog is answered, the tasks in flight
    //    get the grace period, then stragglers unwind at their next
    //    cooperative checkpoint (hung workers meet the watchdog).  No
    //    escalation when idle: an in-process daemon must not arm its
    //    host process's cancellation root for nothing.
    queue_.close();
    {
        std::unique_lock<std::mutex> lock(pendingMutex_);
        if (!pendingDone_.wait_for(lock, grace,
                                   [this] { return pending_ == 0; })) {
            log("drain grace passed; escalating");
            escalateInterrupt();
        }
    }
    for (std::thread &thread : executors_)
        thread.join();
    executors_.clear();

    // 4. Every task has answered.  Clients that saw the drain close
    //    and their readers exit on that end-of-stream; the rest are
    //    force-closed after the grace period.
    {
        std::unique_lock<std::mutex> lock(readersMutex_);
        const auto all_done = [this] {
            return std::all_of(readers_.begin(), readers_.end(),
                               [](const Reader &r) { return r.done; });
        };
        if (!readerDone_.wait_for(lock, grace, all_done)) {
            forceClose_.store(true);
            for (Reader &reader : readers_)
                reader.connection->shutdown();
        }
    }
    for (Reader &reader : readers_)
        reader.thread.join();
    readers_.clear();

    // 5. Reap the worker processes.
    pool_.reset();
    finished_ = true;
    const int code = signum != 0 ? interruptExitCode(signum) : 0;
    log("drained; exit " + std::to_string(code));
    return code;
}

void
Daemon::log(const std::string &line) const
{
    if (options_.verbose)
        std::fprintf(stderr, "[%s] %s\n", config_.name.c_str(),
                     line.c_str());
}

bool
parseDaemonFlag(const std::vector<std::string> &args, size_t *k,
                DaemonOptions *options, DaemonFlags *flags,
                std::string *error)
{
    const std::string &arg = args[*k];
    error->clear();
    int count = 0;
    std::string text;
    if (arg == "--workers") {
        flagCount(args, k, &options->workers, error);
    } else if (arg == "--mem-limit-mb") {
        flagCount(args, k, &options->memLimitMb, error);
    } else if (arg == "--send-timeout-ms") {
        flagCount(args, k, &options->sendTimeoutMs, error);
    } else if (arg == "--max-frame-bytes") {
        if (flagCount(args, k, &count, error))
            options->maxFrameBytes = static_cast<uint32_t>(count);
    } else if (arg == "--verbose") {
        options->verbose = true;
    } else if (arg == "--version") {
        flags->version = true;
    } else if (arg == "--inject") {
        if (!flagValue(args, k, &text, error))
            return true;
        std::string why;
        const auto plan = FaultPlan::parse(text, &why);
        if (!plan.has_value()) {
            *error = "--inject: " + why;
            return true;
        }
        flags->faults = *plan;
        options->faults = flags->faults.empty() ? nullptr : &flags->faults;
    } else {
        return false;
    }
    return true;
}

bool
parseDaemonArgs(const std::vector<std::string> &args,
                const std::vector<DaemonToolFlag> &tool_flags,
                DaemonOptions *options, DaemonFlags *flags,
                std::string *error)
{
    for (size_t k = 0; k < args.size() && !flags->version; ++k) {
        if (parseDaemonFlag(args, &k, options, flags, error)) {
            if (!error->empty())
                return false;
            continue;
        }
        const auto tool = std::find_if(
            tool_flags.begin(), tool_flags.end(),
            [&](const DaemonToolFlag &flag) { return args[k] == flag.name; });
        if (tool == tool_flags.end()) {
            *error = "unknown option '" + args[k] + "'";
            return false;
        }
        const auto &target = tool->target;
        int count = 0;
        if (bool *const *cleared = std::get_if<bool *>(&target)) {
            **cleared = false;
        } else if (std::string *const *text =
                       std::get_if<std::string *>(&target)) {
            if (!flagValue(args, &k, *text, error))
                return false;
        } else {
            if (!flagCount(args, &k, &count, error))
                return false;
            if (int *const *out = std::get_if<int *>(&target))
                **out = count;
            else
                *std::get<std::size_t *>(target) =
                    static_cast<std::size_t>(count);
        }
    }
    return true;
}

} // namespace csched
