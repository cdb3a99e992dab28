#include "runner/job.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "runner/shutdown.hh"

namespace csched {

void
markInterrupted(JobResult &result, const char *when)
{
    result.outcome = JobOutcome::Interrupted;
    result.error = ErrorCode::Interrupted;
    result.diagnostic = std::string("shutdown requested ") + when;
    result.workerSignal = 0;
    result.workerExitStatus = 0;
}

void
interruptibleSleep(int ms)
{
    using Clock = std::chrono::steady_clock;
    const auto until = Clock::now() + std::chrono::milliseconds(ms);
    while (!interruptRequested()) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                until - Clock::now())
                .count();
        if (left <= 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<long long>(10, left)));
    }
}

} // namespace csched
