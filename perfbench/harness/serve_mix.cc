/**
 * @file
 * The serve-mix workload: a closed loop of two synchronous clients,
 * one per worker, against a csched_serve daemon started with its
 * default options.
 *
 * Keys are (paper kernel, small machine, algorithm), more of them than
 * the daemon's 128-entry result cache.  The seed orders the keys; the
 * clients take turns drawing from one request stream that asks for
 * every key once per round, in that order, and for some keys again a
 * few requests later.  So each round runs the same work whatever the
 * seed, the repeats hit the cache or coalesce, and most requests run
 * in the worker pool.  Every reply is checked against the in-process
 * result for the same key, computed before the clock starts.
 */
#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>

#include <unistd.h>

#include "common.hh"
#include "serve/protocol.hh"
#include "support/socket.hh"
#include "support/subprocess.hh"

namespace perfbench {

using namespace csched;

namespace {

/** One client per worker of the daemon's default pool. */
constexpr int kClients = 2;
/** Share of keys asked for again: about 40% of requests are repeats. */
constexpr double kRepeat = 0.65;
/** A repeat follows its key within this many requests. */
constexpr int kRepeatWithin = 8;
/** A run measures at least this many rounds, however slow the host. */
constexpr int kMinRounds = 3;
// Small machines only: their units run in about a millisecond (at most
// ~70 ms), so no single cold key's run sets the throughput of a run.
const std::vector<std::string> kMachines = {"vliw2",  "vliw3",  "vliw4",
                                            "vliw8",  "raw2x2", "raw2x3"};
const std::vector<std::string> kAlgorithms = {"convergent", "uas", "pcc",
                                              "rawcc"};

struct Key
{
    std::string workload;
    std::string machine;
    std::string algorithm;

    std::string text() const
    {
        return workload + "/" + machine + "/" + algorithm;
    }
};

/** Spawn a daemon and wait for its first good reply. */
pid_t
startDaemon(const Options &options, const std::string &socket,
            std::string *why)
{
    const pid_t pid = spawnProcess(
        {options.binDir + "/csched_serve", "--socket", socket});
    if (pid < 0) {
        *why = "cannot start csched_serve";
        return pid;
    }
    // A key outside the mix, so the probe leaves the cache as it was.
    ServeRequest probe;
    probe.id = 1;
    probe.workload = "fir";
    probe.machine = "vliw5";
    probe.algorithm = "pcc";
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
        auto fd = connectUnix(socket, 100);
        if (!fd.ok()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            continue;
        }
        const bool sent = writeFrame(*fd, encodeServeRequest(probe)).ok();
        const FrameResult frame =
            sent ? readFrame(*fd, 20000, kServeMaxFrameBytes) : FrameResult{};
        ::close(*fd);
        if (frame.ok()) {
            const auto reply = decodeServeResponse(frame.payload);
            if (reply.ok() && reply->status == "ok")
                return pid;
        }
        *why = "csched_serve probe got no good reply";
        break;
    }
    if (why->empty())
        *why = "csched_serve did not come up";
    stopProcess(pid);
    return -1;
}

/**
 * The seeded request stream the clients share.  Every round asks for
 * each key once, in the seeded order; there are more keys than cache
 * entries, so a key's next round misses the cache and runs again.
 * After a key, with probability kRepeat, the same key is asked for
 * again within kRepeatWithin requests, while it is still cached.
 */
class RequestStream
{
  public:
    /** @p on_round runs, under the stream's lock, as each round starts. */
    RequestStream(const std::vector<Key> &ranked, uint64_t seed,
                  std::function<void(size_t issued)> on_round)
        : ranked_(ranked), rng_(seed), onRound_(std::move(on_round))
    {
    }

    const Key &next()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (at_ == round_.size()) {
            onRound_(issued_);
            newRound();
            at_ = 0;
            ++rounds_;
        }
        ++issued_;
        return ranked_[round_[at_++]];
    }

    /** Rounds every request of which has been handed out. */
    int completeRounds() const { return std::max(0, rounds_.load() - 1); }

  private:
    void newRound()
    {
        // (position, key): a repeat of the key at p goes between the
        // keys at p + d - 1 and p + d, for d in [1, kRepeatWithin].
        std::vector<std::pair<double, size_t>> slots;
        for (size_t p = 0; p < ranked_.size(); ++p) {
            slots.emplace_back(static_cast<double>(p), p);
            if (rng_.uniform() < kRepeat)
                slots.emplace_back(
                    static_cast<double>(p + 1 + rng_.range(kRepeatWithin)) -
                        0.5,
                    p);
        }
        std::stable_sort(slots.begin(), slots.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        round_.clear();
        for (const auto &slot : slots)
            round_.push_back(slot.second);
    }

    const std::vector<Key> &ranked_;
    Rng rng_;
    std::function<void(size_t)> onRound_;
    std::mutex mutex_;
    std::vector<size_t> round_;
    size_t at_ = 0;
    size_t issued_ = 0;
    std::atomic<int> rounds_{0};
};

struct ClientLog
{
    std::vector<Op> ops;
    std::vector<std::pair<bool, std::string>> verdicts;
};

void
clientMain(int client, const Options &options, const std::string &socket,
           RequestStream &stream,
           const std::map<std::string, JobResult> &reference,
           Clock::time_point start, Tracer &tracer, ClientLog &log)
{
    const auto stop =
        start + std::chrono::duration<double>(options.seconds);
    auto fd = connectUnix(socket, 5000);
    if (!fd.ok()) {
        log.verdicts.emplace_back(false, "client cannot connect: " +
                                             fd.status().toString());
        return;
    }
    for (uint64_t seq = 0;
         Clock::now() < stop || stream.completeRounds() < kMinRounds;
         ++seq) {
        const Key &key = stream.next();
        ServeRequest request;
        request.id = (static_cast<uint64_t>(client + 1) << 32) | seq;
        request.workload = key.workload;
        request.machine = key.machine;
        request.algorithm = key.algorithm;

        Op op;
        op.unit = key.text();
        // A traced run alternates traced and untraced requests, so both
        // see the same cache state and trace.overhead_ratio compares
        // like with like.
        op.traced = options.trace && seq % 2 == 1;
        op.traceOp = op.traced ? tracer.newOp() : 0;
        OpScope scope(op.traceOp);
        Tracer &spans = op.traced ? tracer : untraced();

        const auto begin = Clock::now();
        std::string payload;
        {
            Span span(spans, "serve.encode");
            payload = encodeServeRequest(request);
        }
        FrameResult frame;
        if (writeFrame(*fd, payload).ok())
            frame = readFrame(*fd, 60000, kServeMaxFrameBytes);
        std::optional<StatusOr<ServeResponse>> reply;
        if (frame.ok()) {
            Span span(spans, "serve.decode");
            reply.emplace(decodeServeResponse(frame.payload));
        }
        const auto end = Clock::now();
        op.seconds = secondsBetween(begin, end);
        op.values["done_s"] = secondsBetween(start, end);

        std::string why;
        if (!reply.has_value()) {
            why = op.unit + ": no reply (" + frame.error + ")";
        } else if (!reply->ok()) {
            why = op.unit + ": bad reply: " + reply->status().toString();
        } else {
            const ServeResponse &response = **reply;
            op.makespan = response.result.makespan;
            op.values["queue_ms"] = response.queueMs;
            op.values["run_s"] = response.result.seconds;
            op.values["cached"] = response.cached;
            op.values["coalesced"] = response.coalesced;
            op.values["overloaded"] = response.status == "overloaded";
            if (response.id != request.id)
                why = op.unit + ": reply for request " +
                      std::to_string(response.id) + " (" + response.status +
                      ": " + response.result.diagnostic + ")";
            else if (response.status != "ok")
                why = op.unit + ": " + response.status + " " +
                      response.result.diagnostic;
            else
                sameOutput(reference.at(key.text()), response.result, &why);
        }
        op.ok = why.empty();
        log.verdicts.emplace_back(op.ok, why);
        log.ops.push_back(std::move(op));
        if (!reply.has_value())
            break;  // the connection is gone
    }
    ::close(*fd);
}

} // namespace

int
runServeMix(const Options &options, Report &report, Tracer &tracer)
{
    std::vector<Key> ranked;
    GridSpec grid;
    grid.workloads = paperKernels();
    grid.machines = kMachines;
    for (const auto &name : kAlgorithms)
        grid.algorithms.push_back(*parseAlgorithmSpec(name));
    grid.jobs = kClients;
    grid.computeSpeedup = false;
    for (const auto &workload : grid.workloads)
        for (const auto &machine : grid.machines)
            for (const auto &algorithm : kAlgorithms)
                ranked.push_back({workload, machine, algorithm});
    Rng rng(options.seed);
    shuffle(ranked, rng);

    std::map<std::string, JobResult> reference;
    std::string why;
    if (!referenceResults(grid, &reference, &why)) {
        report.count(false, why);
        return 1;
    }

    // Daemon start until the first good reply, repeated; the last
    // daemon serves the measured traffic.
    pid_t daemon = -1;
    std::string socket;
    for (int rep = 0; moreSetups(report); ++rep) {
        if (daemon > 0) {
            stopProcess(daemon);
            ::unlink(socket.c_str());
        }
        socket = options.runDir + "/serve-" + std::to_string(::getpid()) +
                 "-" + std::to_string(rep) + ".sock";
        const auto begin = Clock::now();
        daemon = startDaemon(options, socket, &why);
        Timed timed;
        timed.seconds = secondsBetween(begin, Clock::now());
        if (daemon < 0) {
            report.count(false, "set-up: " + why);
            return 1;
        }
        report.setups.push_back(timed);
    }

    std::vector<ClientLog> logs(kClients);
    // CPU time of everything that serves the traffic -- the clients
    // here, the daemon and its workers -- read as each round of the
    // request stream starts.  A round asks for the same work whatever
    // the seed, so each complete round is one sample.
    const double daemon_begin = treeCpuSeconds(daemon);
    const double self_begin = selfCpuSeconds();
    const HostCpu host_begin = hostCpu();
    const auto start = Clock::now();
    double round_cpu = 0.0;
    size_t round_issued = 0;
    auto round_start = start;
    RequestStream stream(ranked, options.seed * 7919 + 1, [&](size_t issued) {
        const double cpu = treeCpuSeconds(daemon) - daemon_begin +
                           selfCpuSeconds() - self_begin;
        const auto now = Clock::now();
        if (issued > 0) {
            Timed round;
            round.seconds = secondsBetween(round_start, now);
            round.traced = options.trace;
            round.values["cpu_s"] = cpu - round_cpu;
            round.values["requests"] =
                static_cast<double>(issued - round_issued);
            report.batches.push_back(round);
        }
        round_cpu = cpu;
        round_issued = issued;
        round_start = now;
    });
    {
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back(clientMain, c, std::cref(options),
                                 std::cref(socket), std::ref(stream),
                                 std::cref(reference), start,
                                 std::ref(tracer), std::ref(logs[c]));
        for (auto &client : clients)
            client.join();
    }
    report.values["steal_ratio"] = stealRatio(host_begin, hostCpu());
    // The front end's peak (queue, cache, sessions); the workers' peak
    // grows with heap fragmentation over a run, so it is not a steady
    // figure.
    report.values["daemon_peak_rss_mb"] = processStatusMb(daemon, "VmHWM");
    stopProcess(daemon);
    ::unlink(socket.c_str());

    for (auto &log : logs) {
        for (const auto &[ok, reason] : log.verdicts)
            report.count(ok, reason);
        for (auto &op : log.ops) {
            report.windowSeconds =
                std::max(report.windowSeconds, op.values["done_s"]);
            report.ops.push_back(std::move(op));
        }
    }
    return report.failed == 0 ? 0 : 1;
}

} // namespace perfbench
