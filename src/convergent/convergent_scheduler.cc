#include "convergent/convergent_scheduler.hh"

#include <chrono>
#include <cmath>

#include "convergent/pass_registry.hh"
#include "convergent/preference_matrix.hh"
#include "convergent/sequences.hh"
#include "sched/list_scheduler.hh"
#include "sched/priorities.hh"
#include "support/fault_injection.hh"
#include "support/logging.hh"

namespace csched {

Status
checkWeightInvariants(const PreferenceMatrix &weights,
                      const std::string &pass)
{
    // Per-weight slack for accumulated rounding; the row-sum check
    // gets a little more because it sums num_times * num_clusters
    // rounded terms.
    constexpr double kSlack = 1e-9;
    constexpr double kSumSlack = 1e-6;

    const auto fail = [&pass](InstrId i, const std::string &what) {
        return Status::checkFailed(
            "pass '" + pass + "' broke the weight invariants: " +
            what + " (instruction " + std::to_string(i) + ")");
    };

    for (InstrId i = 0; i < weights.numInstructions(); ++i) {
        // Slots outside the row's feasible window are exactly zero by
        // construction, so checking the window checks the whole row.
        const auto row = weights.row(i);
        double sum = 0.0;
        for (int c = 0; c < weights.numClusters(); ++c) {
            for (const double w : row.windowSpan(c)) {
                if (!std::isfinite(w))
                    return fail(i, "non-finite weight");
                if (w < -kSlack || w > 1.0 + kSlack)
                    return fail(i, "weight " + std::to_string(w) +
                                       " outside [0, 1]");
                sum += w;
            }
        }
        if (std::abs(sum - 1.0) > kSumSlack)
            return fail(i, "row sums to " + std::to_string(sum) +
                               ", not 1");
    }
    return Status();
}

ConvergentScheduler::ConvergentScheduler(const MachineModel &machine,
                                         const std::string &sequence,
                                         PassParams params)
    : machine_(machine),
      passes_(parsePassSequence(sequence)),
      params_(params)
{
}

ConvergentScheduler
ConvergentScheduler::forMachine(const MachineModel &machine)
{
    const bool is_raw = machine.commStyle() == CommStyle::Network;
    return ConvergentScheduler(
        machine, is_raw ? rawPassSequence() : vliwPassSequence(),
        is_raw ? rawPassParams() : vliwPassParams());
}

std::vector<std::string>
ConvergentScheduler::passNames() const
{
    std::vector<std::string> names;
    for (const auto &pass : passes_)
        names.push_back(pass->name());
    return names;
}

ConvergentResult
ConvergentScheduler::schedule(const DependenceGraph &graph) const
{
    CSCHED_ASSERT(graph.finalized(), "graph must be finalized");
    const int n = graph.numInstructions();

    PreferenceMatrix weights(n, graph.criticalPathLength(),
                             machine_.numClusters());
    // On a degraded machine, mask dead clusters out of every row up
    // front (zero + renormalize): passes then redistribute preference
    // mass among alive clusters only, and INITTIME's capability
    // masking keeps the columns zero for the rest of the pipeline.
    // Every row still shares the initial row here, so this masks that
    // one row.
    if (machine_.degraded()) {
        for (int c = 0; c < machine_.numClusters(); ++c)
            if (!machine_.clusterAlive(c))
                weights.zeroClusterAll(c);
        weights.normalizeAll();
    }
    Rng rng(params_.noiseSeed);
    PassContext ctx{graph, machine_, weights, params_, rng};

    ConvergentResult result{std::vector<int>(n), std::vector<int>(n),
                            Schedule(n, machine_.numClusters()),
                            {}};

    std::vector<int> before = weights.preferredClusters();
    // The rollback snapshot lives outside the pass loop so that each
    // iteration copy-assigns into the same allocation.  The matrix is
    // window-compact, so a snapshot copies only the windows rows hold.
    PreferenceMatrix snapshot = weights;
    for (const auto &pass : passes_) {
        checkpoint("pass.apply");
        // Pass-level graceful degradation (the paper's Section-4
        // claim that the composition tolerates individual passes
        // misbehaving): snapshot the matrix, and if the pass throws
        // or leaves invariants that one renormalization cannot heal,
        // roll the matrix back and continue without the pass -- the
        // step is marked "skipped" in the trace.  Cooperative
        // cancellation (deadline, shutdown) must still unwind: a
        // skipped pass is a degraded schedule, a missed deadline is
        // not.
        snapshot = weights;
        const auto begin = std::chrono::steady_clock::now();
        std::string skip_reason;
        try {
            pass->run(ctx);
            // Deterministic stand-in for a throwing pass (tests).
            faultPoint("pass.body");
            // Guard the Section-3 invariants after every pass.  A
            // pass that scaled without normalizing is healed by one
            // renormalization; anything normalization cannot restore
            // (non-finite weights) gets the pass rolled back.
            if (!checkWeightInvariants(weights, pass->name()).ok()) {
                weights.normalizeAll();
                const Status recheck =
                    checkWeightInvariants(weights, pass->name());
                if (!recheck.ok())
                    throw StatusError(recheck);
            }
        } catch (const StatusError &error) {
            if (error.status.code() == ErrorCode::Timeout ||
                error.status.code() == ErrorCode::Interrupted)
                throw;
            skip_reason = error.status.toString();
        } catch (const std::exception &error) {
            skip_reason = error.what();
        }
        if (!skip_reason.empty()) {
            weights = snapshot;
            CSCHED_WARN("pass '", pass->name(),
                        "' skipped (matrix rolled back): ",
                        skip_reason);
        }
        const auto end = std::chrono::steady_clock::now();
        const std::vector<int> after = weights.preferredClusters();
        int changed = 0;
        for (InstrId i = 0; i < n; ++i)
            if (after[i] != before[i])
                ++changed;
        result.trace.push_back(
            {pass->name(), static_cast<double>(changed) / n,
             pass->temporalOnly(),
             std::chrono::duration<double>(end - begin).count(),
             !skip_reason.empty()});
        before = after;
    }

    // Extract the assignment: preferred cluster, with preplaced
    // instructions clamped to their homes (correctness requirement).
    for (InstrId i = 0; i < n; ++i) {
        const auto &instr = graph.instr(i);
        int cluster = weights.preferredCluster(i);
        if (instr.preplaced())
            cluster = instr.homeCluster;
        if (!machine_.canExecute(cluster, instr.op)) {
            // Fall back to the best capable cluster.
            int best = -1;
            for (int c = 0; c < machine_.numClusters(); ++c) {
                if (!machine_.canExecute(c, instr.op))
                    continue;
                if (best == -1 || weights.spaceMarginal(i, c) >
                                      weights.spaceMarginal(i, best)) {
                    best = c;
                }
            }
            CSCHED_ASSERT(best != -1, "no cluster can execute ",
                          opcodeName(instr.op));
            cluster = best;
        }
        result.assignment[i] = cluster;
        result.preferredTime[i] = weights.preferredTime(i);
    }

    // Integration with the host scheduler follows the paper's Section
    // 5: Chorus (the clustered VLIW) uses the temporal assignments as
    // list-scheduling priorities, while on Raw "the temporal
    // assignments are computed independently by its own instruction
    // scheduler" -- i.e. classic critical-path list scheduling over
    // the convergent spatial assignment.
    const ListScheduler scheduler(machine_);
    const auto priority =
        machine_.commStyle() == CommStyle::Network
            ? criticalPathPriority(graph)
            : preferredTimePriority(graph, result.preferredTime);
    result.schedule = scheduler.run(graph, result.assignment, priority);
    return result;
}

} // namespace csched
