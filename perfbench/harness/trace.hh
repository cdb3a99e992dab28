/**
 * @file
 * Span recorder for the traced benchmark run.
 *
 * A span is one call into a layer of the library, made from the
 * harness: its name (which is also the per-layer metric it feeds),
 * start and end, the span that was open around it on the same thread,
 * and the benchmark operation it belongs to.  Spans stay in memory
 * until the run ends; writeChromeTrace() then stores them as Chrome
 * trace-event JSON, so a run can be opened as a timeline.
 *
 * With tracing off every Span is inert: no clock read, no allocation.
 */
#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two clock readings. */
inline double
secondsBetween(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

/** One closed span; times are seconds since the tracer was made. */
struct SpanRecord
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 for a root span
    uint64_t op = 0;      ///< benchmark operation id; 0 for none
    uint64_t thread = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled);
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** A fresh operation id (ids are never 0). */
    uint64_t newOp();

    /** Summed span seconds per span name, for each operation. */
    std::map<uint64_t, std::map<std::string, double>> layerSeconds() const;

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    friend class Span;

    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    uint64_t nextId_ = 1;  // guarded by mutex_
    std::vector<SpanRecord> spans_;  // guarded by mutex_
};

/** A tracer that records nothing: the spans of untraced operations. */
Tracer &untraced();

/**
 * Makes @p op the operation of every span opened on this thread while
 * the scope lives.  @p parent, when not 0, becomes the parent of the
 * outermost of those spans: how a job span run on a pool thread hangs
 * under the span of the grid that submitted it.
 */
class OpScope
{
  public:
    explicit OpScope(uint64_t op, uint64_t parent = 0);
    ~OpScope();
    OpScope(const OpScope &) = delete;
    OpScope &operator=(const OpScope &) = delete;

  private:
    uint64_t savedOp_;
    uint64_t savedSpan_;
};

/** RAII span around one layer call. */
class Span
{
  public:
    Span(Tracer &tracer, std::string name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id; 0 when tracing is off. */
    uint64_t id() const { return id_; }

  private:
    Tracer *tracer_;
    std::string name_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    Clock::time_point start_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
