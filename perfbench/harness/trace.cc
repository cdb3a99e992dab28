#include "trace.hh"

#include <atomic>
#include <fstream>

#include "support/json.hh"

namespace perfbench {

namespace {

// The open span and current operation of the calling thread.
thread_local uint64_t tCurrentSpan = 0;
thread_local uint64_t tCurrentOp = 0;

uint64_t
threadNumber()
{
    static std::atomic<uint64_t> next{1};
    thread_local const uint64_t number = next.fetch_add(1);
    return number;
}

} // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

uint64_t
Tracer::newOp()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

std::map<uint64_t, std::map<std::string, double>>
Tracer::layerSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<uint64_t, std::map<std::string, double>> sums;
    for (const auto &span : spans_)
        sums[span.op][span.name] += span.end - span.start;
    return sums;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    csched::JsonWriter w(out);
    w.beginObject();
    w.key("traceEvents").beginArray();
    for (const auto &span : spans_) {
        w.beginObject();
        w.key("name").value(span.name);
        w.key("ph").value("X");
        w.key("ts").value(span.start * 1e6);
        w.key("dur").value((span.end - span.start) * 1e6);
        w.key("pid").value(1);
        w.key("tid").value(span.thread);
        w.key("args").beginObject();
        w.key("id").value(span.id);
        w.key("parent").value(span.parent);
        w.key("op").value(span.op);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    out << "\n";
    return static_cast<bool>(out);
}

Tracer &
untraced()
{
    static Tracer off(false);
    return off;
}

OpScope::OpScope(uint64_t op, uint64_t parent)
    : savedOp_(tCurrentOp), savedSpan_(tCurrentSpan)
{
    tCurrentOp = op;
    if (parent != 0)
        tCurrentSpan = parent;
}

OpScope::~OpScope()
{
    tCurrentOp = savedOp_;
    tCurrentSpan = savedSpan_;
}

Span::Span(Tracer &tracer, std::string name)
    : tracer_(tracer.enabled() ? &tracer : nullptr)
{
    if (tracer_ == nullptr)
        return;
    name_ = std::move(name);
    {
        std::lock_guard<std::mutex> lock(tracer_->mutex_);
        id_ = tracer_->nextId_++;
    }
    parent_ = tCurrentSpan;
    tCurrentSpan = id_;
    start_ = Clock::now();
}

Span::~Span()
{
    if (tracer_ == nullptr)
        return;
    const auto end = Clock::now();
    tCurrentSpan = parent_;
    SpanRecord record{std::move(name_),
                      secondsBetween(tracer_->origin_, start_),
                      secondsBetween(tracer_->origin_, end),
                      id_,
                      parent_,
                      tCurrentOp,
                      threadNumber()};
    std::lock_guard<std::mutex> lock(tracer_->mutex_);
    tracer_->spans_.push_back(std::move(record));
}

} // namespace perfbench
