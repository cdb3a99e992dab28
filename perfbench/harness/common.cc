#include "common.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/json.hh"
#include "workloads/workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {

using namespace csched;

void
Report::count(bool ok, const std::string &why)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    // Keep the report small: the first failures say what went wrong.
    if (failures.size() < 20)
        failures.push_back(why);
}

bool
moreSetups(const Report &report)
{
    double total = 0.0;
    for (const auto &setup : report.setups)
        total += setup.seconds;
    const size_t count = report.setups.size();
    return count < 9 || (total < 1.0 && count < 25);
}

namespace {

void
writeValues(JsonWriter &w, const std::map<std::string, double> &values)
{
    for (const auto &[name, value] : values)
        w.key(name).value(value);
}

void
writeLayers(JsonWriter &w,
            const std::map<uint64_t, std::map<std::string, double>> &layers,
            uint64_t op)
{
    const auto found = layers.find(op);
    if (op == 0 || found == layers.end())
        return;
    w.key("layers").beginObject();
    writeValues(w, found->second);
    w.endObject();
}

void
writeTimed(JsonWriter &w, const std::vector<Timed> &items,
           const std::map<uint64_t, std::map<std::string, double>> &layers)
{
    w.beginArray();
    for (const auto &item : items) {
        w.beginObject();
        w.key("s").value(item.seconds);
        w.key("traced").value(item.traced);
        writeValues(w, item.values);
        writeLayers(w, layers, item.traceOp);
        w.endObject();
    }
    w.endArray();
}

} // namespace

bool
writeReport(const Options &options, const Report &report,
            const Tracer &tracer)
{
    const auto layers = tracer.layerSeconds();
    std::ofstream out(options.out);
    JsonWriter w(out);
    w.beginObject();
    w.key("schema").value("perfbench-raw-v1");
    w.key("workload").value(options.workload);
    w.key("seed").value(options.seed);
    w.key("trace").value(options.trace);
    w.key("build").beginObject();
    w.key("buildType").value(PERFBENCH_BUILD_TYPE);
    w.key("cxxFlags").value(PERFBENCH_CXX_FLAGS);
    w.key("compiler").value(__VERSION__);
    w.endObject();
    w.key("attempted").value(report.attempted);
    w.key("failed").value(report.failed);
    w.key("fidelity").value(report.fidelity);
    w.key("failures").beginArray();
    for (const auto &why : report.failures)
        w.value(why);
    w.endArray();
    w.key("window_s").value(report.windowSeconds);
    w.key("values").beginObject();
    writeValues(w, report.values);
    w.endObject();
    w.key("setups");
    writeTimed(w, report.setups, layers);
    w.key("batches");
    writeTimed(w, report.batches, layers);
    w.key("ops").beginArray();
    for (const auto &op : report.ops) {
        w.beginObject();
        w.key("unit").value(op.unit);
        w.key("s").value(op.seconds);
        w.key("traced").value(op.traced);
        w.key("batch").value(op.batch);
        w.key("ok").value(op.ok);
        w.key("makespan").value(op.makespan);
        writeValues(w, op.values);
        writeLayers(w, layers, op.traceOp);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    out << "\n";
    return static_cast<bool>(out);
}

double
processStatusMb(pid_t pid, const std::string &field)
{
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind(field + ":", 0) != 0)
            continue;
        std::istringstream fields(line.substr(field.size() + 1));
        double kb = 0.0;
        fields >> kb;
        return kb / 1024.0;
    }
    return 0.0;
}

double
selfStatusMb(const std::string &field)
{
    return processStatusMb(::getpid(), field);
}

void
resetPeakRss()
{
    // "5" resets the peak RSS (VmHWM) to the current RSS (Linux 4.0+).
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
selfCpuSeconds()
{
    timespec now{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) + now.tv_nsec * 1e-9;
}

namespace {

/**
 * The fields of /proc/<pid>/stat after the command name, which may
 * itself hold spaces: fields[0] is the state (field 3 of proc(5)).
 * Empty when the process is gone.
 */
std::vector<std::string>
statFields(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    std::getline(in, line);
    const size_t close = line.rfind(')');
    if (close == std::string::npos)
        return {};
    std::istringstream rest(line.substr(close + 1));
    std::vector<std::string> fields;
    for (std::string field; rest >> field;)
        fields.push_back(field);
    return fields;
}

} // namespace

std::vector<pid_t>
descendants(pid_t root)
{
    std::map<pid_t, std::vector<pid_t>> children;
    std::error_code error;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc", error)) {
        const std::string name = entry.path().filename().string();
        if (name.empty() ||
            !std::all_of(name.begin(), name.end(), ::isdigit))
            continue;
        const pid_t pid = static_cast<pid_t>(std::stol(name));
        const auto fields = statFields(pid);
        if (fields.size() > 1)
            children[static_cast<pid_t>(std::stol(fields[1]))].push_back(
                pid);
    }
    std::vector<pid_t> out;
    std::vector<pid_t> stack = {root};
    while (!stack.empty()) {
        const pid_t parent = stack.back();
        stack.pop_back();
        for (const pid_t child : children[parent]) {
            out.push_back(child);
            stack.push_back(child);
        }
    }
    return out;
}

double
treeCpuSeconds(pid_t root)
{
    static const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
    std::vector<pid_t> pids = descendants(root);
    pids.push_back(root);
    double ticks = 0.0;
    for (const pid_t pid : pids) {
        const auto fields = statFields(pid);
        // utime, stime, cutime, cstime: fields 14-17 of proc(5).
        if (fields.size() > 14)
            for (int k = 11; k <= 14; ++k)
                ticks += std::stod(fields[k]);
    }
    return ticks / tick;
}

HostCpu
hostCpu()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;  // "cpu": the sum over all CPUs
    HostCpu out;
    // user nice system idle iowait irq softirq steal (guest time is
    // already counted in user).
    for (int k = 0; k < 8; ++k) {
        double ticks = 0.0;
        in >> ticks;
        out.total += ticks;
        if (k == 7)
            out.steal = ticks;
    }
    return out;
}

double
stealRatio(const HostCpu &begin, const HostCpu &end)
{
    const double total = end.total - begin.total;
    return total > 0.0 ? (end.steal - begin.steal) / total : 0.0;
}

pid_t
spawnProcess(const std::vector<std::string> &argv)
{
    std::vector<char *> args;
    for (const auto &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    // The harness's stdout carries the result line; keep daemons off it.
    ::dup2(STDERR_FILENO, STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
}

void
stopProcess(pid_t pid, int grace_ms)
{
    if (pid <= 0)
        return;
    ::kill(pid, SIGTERM);
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(grace_ms);
    for (;;) {
        const pid_t done = ::waitpid(pid, nullptr, WNOHANG);
        if (done == pid || (done < 0 && errno != EINTR))
            return;
        if (Clock::now() >= deadline) {
            ::kill(pid, SIGKILL);
            while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
            }
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

std::string
resultKey(const JobResult &result)
{
    return result.workload + "/" + result.machine + "/" + result.algorithm;
}

bool
referenceResults(const GridSpec &grid,
                 std::map<std::string, JobResult> *out, std::string *why)
{
    if (!validateGrid(grid, why))
        return false;
    const GridReport report = runGrid(grid);
    for (const auto &result : report.results) {
        if (!result.ok()) {
            *why = "reference " + resultKey(result) + " failed: " +
                   result.diagnostic;
            return false;
        }
        (*out)[resultKey(result)] = result;
    }
    return true;
}

bool
sameOutput(const JobResult &expected, const JobResult &got,
           std::string *why)
{
    const std::string key = resultKey(got);
    if (!got.ok())
        *why = key + ": " + jobOutcomeName(got.outcome) + " " +
               got.diagnostic;
    else if (got.makespan != expected.makespan)
        *why = key + ": makespan " + std::to_string(got.makespan) +
               " != in-process " + std::to_string(expected.makespan);
    else if (got.assignment != expected.assignment)
        *why = key + ": assignment differs from the in-process run";
    else
        return true;
    return false;
}

std::vector<std::string>
paperKernels()
{
    std::vector<std::string> names;
    for (const auto &spec : allWorkloads())
        names.push_back(spec.name);
    return names;
}

} // namespace perfbench
