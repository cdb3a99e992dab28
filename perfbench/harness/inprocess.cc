/**
 * @file
 * The in-process workloads, convergent-large and mesh-baselines: each
 * unit (workload, machine, algorithm) is scheduled and checked through
 * the library's public functions.
 *
 * Untraced operations call SchedulingAlgorithm::run() and
 * checkSchedule().  The traced run alternates each of those with a
 * replay composed from the layer functions -- the PreferenceMatrix
 * constructor, each Pass::run, checkWeightInvariants, ListScheduler::run,
 * rawccCluster / mergeClusters / placeClusters -- with a span around
 * every call.  A replay whose schedule differs in any placement or
 * communication event from the untraced run fails the fidelity check,
 * and run.py then refuses to report.
 */
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "baseline/pcc.hh"
#include "baseline/rawcc_clusterer.hh"
#include "baseline/rawcc_merger.hh"
#include "baseline/rawcc_placer.hh"
#include "common.hh"
#include "convergent/convergent_scheduler.hh"
#include "convergent/pass_registry.hh"
#include "convergent/preference_matrix.hh"
#include "eval/experiment.hh"
#include "machine/machine_spec.hh"
#include "sched/list_scheduler.hh"
#include "sched/priorities.hh"
#include "sched/schedule_checker.hh"
#include "support/str.hh"
#include "workloads/workloads.hh"

namespace perfbench {

using namespace csched;

namespace {

struct UnitSpec
{
    std::string workload;
    std::string machine;
    std::string alias;  ///< machine name usable in a metric name
    std::string algorithm;
    /** Fault map k >= 1 runs in every kFaultMaps-th round; 0 in all. */
    int variant = 0;
};

struct Unit
{
    UnitSpec spec;
    const MachineModel *machine = nullptr;
    const DependenceGraph *graph = nullptr;
    std::unique_ptr<SchedulingAlgorithm> algorithm;
    /** Convergent only: the family-default pipeline run() uses. */
    std::vector<std::unique_ptr<Pass>> passes;
    PassParams params;
    /** The first untraced schedule; later runs must reproduce it. */
    std::optional<Schedule> reference;

    std::string name() const
    {
        return spec.workload + "." + spec.alias + "." + spec.algorithm;
    }
};

/** The products of one set-up; units point into the maps. */
struct Setup
{
    std::map<std::string, std::unique_ptr<MachineModel>> machines;
    std::map<std::pair<std::string, std::string>, DependenceGraph> graphs;
    std::vector<Unit> units;
};

/** Degraded raw8x8 fault maps per mesh-baselines run, one per round. */
constexpr int kFaultMaps = 6;

/**
 * The degraded raw8x8 machines of mesh-baselines.  Their fault maps
 * are seeded by the benchmark seed; a map that disconnects the mesh is
 * refused by the library, so the first connected maps are used.  A run
 * rotates through several maps so that one unlucky map does not set
 * its figures.
 */
std::vector<std::string>
degradedMeshes(uint64_t seed)
{
    std::vector<std::string> specs;
    for (uint64_t s = seed * 1000; s < seed * 1000 + 1000; ++s) {
        const std::string spec = "raw8x8/faults=seed:" +
                                 std::to_string(s) + ",tiles:10%,links:3%";
        if (tryParseMachineSpec(spec).ok())
            specs.push_back(spec);
        if (specs.size() == kFaultMaps)
            break;
    }
    specs.resize(kFaultMaps);  // an empty spec fails the set-up
    return specs;
}

std::vector<UnitSpec>
unitSpecs(const Options &options)
{
    if (options.workload == "convergent-large")
        return {{"synth-wide-10k", "vliw4", "vliw4", "convergent"},
                {"synth-narrow-2k", "raw4", "raw4", "convergent"},
                {"mxm", "raw16x16", "raw16x16", "convergent"}};
    const auto degraded = degradedMeshes(options.seed);
    std::vector<UnitSpec> specs;
    for (const char *algorithm : {"uas", "rawcc", "pcc"}) {
        specs.push_back({"mxm", "raw8x8", "raw8x8", algorithm});
        for (int k = 0; k < kFaultMaps; ++k)
            specs.push_back({"mxm", degraded[k], "raw8x8f", algorithm, k + 1});
    }
    return specs;
}

/** Build every machine, graph and algorithm the units need. */
std::unique_ptr<Setup>
setUp(const std::vector<UnitSpec> &specs, Tracer &tracer, std::string *why)
{
    auto setup = std::make_unique<Setup>();
    for (const auto &spec : specs) {
        auto &machine = setup->machines[spec.machine];
        if (machine == nullptr) {
            Span span(tracer, "machine.construct");
            auto parsed = tryParseMachineSpec(spec.machine);
            if (!parsed.ok()) {
                *why = parsed.status().toString();
                return nullptr;
            }
            machine = std::move(parsed.value());
        }
        const auto key = std::make_pair(spec.workload, spec.machine);
        auto graph = setup->graphs.find(key);
        if (graph == setup->graphs.end()) {
            Span span(tracer, "workloads.build");
            const WorkloadSpec *workload = tryFindWorkload(spec.workload);
            if (workload == nullptr) {
                *why = "unknown workload " + spec.workload;
                return nullptr;
            }
            const int clusters = machine->numClusters();
            graph = setup->graphs
                        .emplace(key, workload->build(clusters, clusters))
                        .first;
            remapPreplacedForMachine(graph->second, *machine);
        }
        Unit unit;
        unit.spec = spec;
        unit.machine = machine.get();
        unit.graph = &graph->second;
        auto algorithm = tryMakeAlgorithm(
            *parseAlgorithmSpec(spec.algorithm), *machine);
        if (!algorithm.ok()) {
            *why = algorithm.status().toString();
            return nullptr;
        }
        unit.algorithm = std::move(algorithm.value());
        if (spec.algorithm == "convergent") {
            const auto family = ConvergentScheduler::forMachine(*machine);
            unit.passes = parsePassSequence(join(family.passNames(), ","));
            unit.params = family.params();
        }
        setup->units.push_back(std::move(unit));
    }
    return setup;
}

bool
sameSchedule(const Schedule &a, const Schedule &b)
{
    if (a.numInstructions() != b.numInstructions() ||
        a.comms().size() != b.comms().size())
        return false;
    for (InstrId i = 0; i < a.numInstructions(); ++i) {
        const Placement &x = a.at(i);
        const Placement &y = b.at(i);
        if (x.cluster != y.cluster || x.cycle != y.cycle || x.fu != y.fu ||
            x.finish != y.finish)
            return false;
    }
    for (size_t k = 0; k < a.comms().size(); ++k) {
        const CommEvent &x = a.comms()[k];
        const CommEvent &y = b.comms()[k];
        if (x.producer != y.producer || x.fromCluster != y.fromCluster ||
            x.toCluster != y.toCluster || x.start != y.start ||
            x.arrive != y.arrive || x.fu != y.fu ||
            x.linkSlots != y.linkSlots)
            return false;
    }
    return true;
}

/** ConvergentScheduler::schedule, one span per layer call. */
Schedule
replayConvergent(Unit &unit, Tracer &tracer, Op &op)
{
    const DependenceGraph &graph = *unit.graph;
    const MachineModel &machine = *unit.machine;
    const int n = graph.numInstructions();

    std::optional<PreferenceMatrix> weights;
    {
        Span span(tracer, "convergent.matrix_alloc");
        const double before = selfStatusMb("VmRSS");
        weights.emplace(n, graph.criticalPathLength(),
                        machine.numClusters());
        if (machine.degraded()) {
            for (InstrId i = 0; i < n; ++i) {
                auto row = weights->row(i);
                for (int c = 0; c < machine.numClusters(); ++c)
                    if (!machine.clusterAlive(c))
                        row.zeroCluster(c);
                row.normalize();
            }
        }
        op.values["matrix_alloc_mb"] = selfStatusMb("VmRSS") - before;
    }
    Rng rng(unit.params.noiseSeed);
    PassContext ctx{graph, machine, *weights, unit.params, rng};

    std::vector<int> preferred;
    {
        Span span(tracer, "convergent.convergence");
        preferred = weights->preferredClusters();
    }
    std::optional<PreferenceMatrix> snapshot;
    {
        Span span(tracer, "convergent.snapshot");
        snapshot.emplace(*weights);
    }
    for (const auto &pass : unit.passes) {
        {
            Span span(tracer, "convergent.snapshot");
            *snapshot = *weights;
        }
        bool roll_back = false;
        try {
            {
                Span span(tracer, "convergent.pass." + pass->name());
                pass->run(ctx);
            }
            Span span(tracer, "convergent.guard");
            if (!checkWeightInvariants(*weights, pass->name()).ok()) {
                weights->normalizeAll();
                roll_back =
                    !checkWeightInvariants(*weights, pass->name()).ok();
            }
        } catch (const std::exception &) {
            roll_back = true;
        }
        if (roll_back)
            *weights = *snapshot;
        Span span(tracer, "convergent.convergence");
        const std::vector<int> after = weights->preferredClusters();
        int changed = 0;
        for (InstrId i = 0; i < n; ++i)
            changed += after[i] != preferred[i];
        op.values["clusters_changed"] += changed;
        preferred = after;
    }

    std::vector<int> assignment(n);
    std::vector<int> preferred_time(n);
    std::vector<double> priority;
    {
        Span span(tracer, "convergent.extract");
        for (InstrId i = 0; i < n; ++i) {
            const auto &instr = graph.instr(i);
            int cluster = instr.preplaced() ? instr.homeCluster
                                            : weights->preferredCluster(i);
            if (!machine.canExecute(cluster, instr.op)) {
                int best = -1;
                for (int c = 0; c < machine.numClusters(); ++c)
                    if (machine.canExecute(c, instr.op) &&
                        (best == -1 || weights->spaceMarginal(i, c) >
                                           weights->spaceMarginal(i, best)))
                        best = c;
                cluster = best;
            }
            assignment[i] = cluster;
            preferred_time[i] = weights->preferredTime(i);
        }
        priority = machine.commStyle() == CommStyle::Network
                       ? criticalPathPriority(graph)
                       : preferredTimePriority(graph, preferred_time);
    }

    // Live window slots: what a window-compact matrix would store.
    double live = 0.0;
    for (InstrId i = 0; i < n; ++i) {
        const auto row = std::as_const(*weights).row(i);
        live += static_cast<double>(row.windowHi() - row.windowLo());
    }
    op.values["window_live"] = live * machine.numClusters();
    op.values["window_slots"] = static_cast<double>(n) *
                                weights->numTimes() * machine.numClusters();

    Span span(tracer, "sched.list");
    return ListScheduler(machine).run(graph, assignment, priority);
}

/** RawccPartitioner::run, one span per phase. */
Schedule
replayRawcc(Unit &unit, Tracer &tracer)
{
    const DependenceGraph &graph = *unit.graph;
    const MachineModel &machine = *unit.machine;
    const auto alive = machine.aliveClusters();
    const int comm_cost =
        alive.size() > 1 ? machine.commLatency(alive[0], alive[1]) : 1;
    ClusteringResult clustered;
    ClusteringResult merged;
    std::vector<int> assignment;
    {
        Span span(tracer, "baseline.rawcc.cluster");
        clustered = rawccCluster(graph, comm_cost);
    }
    {
        Span span(tracer, "baseline.rawcc.merge");
        merged = mergeClusters(graph, clustered, machine.numAliveClusters());
    }
    {
        Span span(tracer, "baseline.rawcc.place");
        assignment = placeClusters(graph, machine, merged);
    }
    Span span(tracer, "sched.list");
    return ListScheduler(machine).run(graph, assignment,
                                      criticalPathPriority(graph));
}

/** The traced schedule of @p unit. */
Schedule
replay(Unit &unit, Tracer &tracer, Op &op)
{
    const std::string &algorithm = unit.spec.algorithm;
    if (algorithm == "convergent")
        return replayConvergent(unit, tracer, op);
    if (algorithm == "rawcc")
        return replayRawcc(unit, tracer);
    if (algorithm == "pcc") {
        // PCC's descent is internal; its component build is public and
        // is timed here as one extra call.
        Span span(tracer, "baseline.pcc.components");
        PccScheduler(*unit.machine).buildComponents(*unit.graph);
    }
    Span span(tracer, "baseline." + algorithm);
    return unit.algorithm->run(*unit.graph).schedule;
}

void
measure(Unit &unit, int batch, bool traced, Report &report, Tracer &tracer)
{
    // Untraced operations record no spans, even in a traced run.
    Tracer &spans = traced ? tracer : untraced();
    Op op;
    op.unit = unit.name();
    op.batch = batch;
    op.traced = traced;
    op.values["variant"] = unit.spec.variant;
    if (traced)
        op.traceOp = tracer.newOp();
    else
        resetPeakRss();
    OpScope scope(op.traceOp);

    const auto begin = Clock::now();
    const double cpu_begin = selfCpuSeconds();
    std::optional<Schedule> schedule;
    if (traced)
        schedule.emplace(replay(unit, tracer, op));
    else
        schedule.emplace(unit.algorithm->run(*unit.graph).schedule);
    CheckResult check;
    {
        Span span(spans, "sched.check");
        check = checkSchedule(*unit.graph, *unit.machine, *schedule);
    }
    op.seconds = secondsBetween(begin, Clock::now());
    op.values["cpu_s"] = selfCpuSeconds() - cpu_begin;
    op.makespan = schedule->makespan();
    if (!traced)
        op.values["rss_mb"] = selfStatusMb("VmHWM");

    std::string why;
    if (!check.ok()) {
        why = op.unit + ": checker: " + check.message();
    } else if (!unit.reference.has_value()) {
        unit.reference = std::move(*schedule);
    } else if (!sameSchedule(*unit.reference, *schedule)) {
        why = op.unit + (traced ? ": traced replay differs from run()"
                                : ": schedule differs between runs");
        if (traced)
            report.fidelity = false;
    }
    op.ok = why.empty();
    report.count(op.ok, why);
    report.ops.push_back(std::move(op));
}

} // namespace

int
runInProcess(const Options &options, Report &report, Tracer &tracer)
{
    const auto specs = unitSpecs(options);
    std::unique_ptr<Setup> setup;
    while (moreSetups(report)) {
        setup.reset();
        Timed timed;
        timed.traced = options.trace;
        timed.traceOp = options.trace ? tracer.newOp() : 0;
        OpScope scope(timed.traceOp);
        std::string why;
        const auto begin = Clock::now();
        setup = setUp(specs, tracer, &why);
        timed.seconds = secondsBetween(begin, Clock::now());
        if (setup == nullptr) {
            report.count(false, "set-up: " + why);
            return 1;
        }
        report.setups.push_back(timed);
    }

    // The seed orders the units, afresh in every round.  A round is
    // one sample, so an untraced run has at least three, and every run
    // covers every fault map, however slow the host.
    Rng rng(options.seed);
    std::vector<Unit *> order;
    int min_rounds = options.trace ? 1 : 3;
    for (auto &unit : setup->units) {
        order.push_back(&unit);
        if (unit.spec.variant != 0)
            min_rounds = kFaultMaps;
    }
    const HostCpu host_begin = hostCpu();
    const auto start = Clock::now();
    int batch = 0;
    do {
        shuffle(order, rng);
        Timed round;
        const auto begin = Clock::now();
        for (Unit *unit : order) {
            if (unit->spec.variant != 0 &&
                unit->spec.variant != batch % kFaultMaps + 1)
                continue;
            measure(*unit, batch, false, report, tracer);
            if (options.trace)
                measure(*unit, batch, true, report, tracer);
        }
        round.seconds = secondsBetween(begin, Clock::now());
        round.traced = options.trace;
        report.batches.push_back(round);
        ++batch;
    } while (secondsBetween(start, Clock::now()) < options.seconds ||
             batch < min_rounds);
    report.windowSeconds = secondsBetween(start, Clock::now());
    report.values["steal_ratio"] = stealRatio(host_begin, hostCpu());
    return 0;
}

} // namespace perfbench
