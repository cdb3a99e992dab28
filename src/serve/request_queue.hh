/**
 * @file
 * The serve daemon's admission unit.  Each admitted request rides the
 * daemon core's bounded task queue (runner/daemon.hh) as one
 * QueuedRequest, so that queue's contract is the serve contract:
 *
 *  - Backpressure: push() never blocks and never grows the queue past
 *    its capacity -- a full queue refuses with ErrorCode::Overloaded,
 *    which the reader turns into a structured rejection reply instead
 *    of buffering work the daemon cannot keep up with.
 *  - Deadlines: each item carries the deadline fixed at admission, so
 *    a dispatcher sheds requests that aged out while waiting without
 *    spending a worker on them.
 *  - Drain: close() refuses further pushes with Interrupted while the
 *    backlog is still handed out, to be answered `interrupted`.
 */

#ifndef CSCHED_SERVE_REQUEST_QUEUE_HH
#define CSCHED_SERVE_REQUEST_QUEUE_HH

#include <chrono>
#include <memory>

#include "runner/daemon.hh"
#include "serve/protocol.hh"

namespace csched {

class Session;

/** One admitted request waiting for a dispatcher. */
struct QueuedRequest
{
    /**
     * The connection to answer on.  Shared ownership: the session must
     * outlive the reply even if the reader thread (and its client)
     * already went away.
     */
    std::shared_ptr<Session> session;
    ServeRequest request;
    /** When admission happened (queue-latency measurement). */
    std::chrono::steady_clock::time_point admitted;
    /**
     * End-to-end deadline fixed at admission; queue wait counts
     * against it.  time_point::max() when the request has none.
     */
    std::chrono::steady_clock::time_point deadline;
};

/** The admission queue's semantics over bare requests. */
using RequestQueue = BoundedQueue<QueuedRequest>;

} // namespace csched

#endif // CSCHED_SERVE_REQUEST_QUEUE_HH
