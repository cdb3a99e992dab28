/**
 * @file
 * PATHPROP -- path propagation (Section 4).
 *
 * Selects high-confidence instructions (confidence above the threshold
 * parameter t) and propagates their preference matrices along
 * dependence paths, downward through successors and upward through
 * predecessors.  A propagation step visits the next neighbour that is
 * still *undecided* -- confidence below the threshold -- and blends
 * the propagator's matrix into it (50/50 by default), then continues
 * from the visited instruction.  This lets a strongly-decided
 * instruction (for example a preplaced load that PLACE boosted) pull
 * the undecided chain it feeds towards its cluster, while leaving
 * already-decided regions alone; late in the pipeline, when most
 * instructions are confident, the pass naturally quiesces (the
 * convergence behaviour of the paper's Figures 7 and 9).
 */

#include <algorithm>

#include "convergent/pass.hh"

namespace csched {

namespace {

class PathPropPass : public Pass
{
  public:
    std::string name() const override { return "PATHPROP"; }

    void
    run(PassContext &ctx) override
    {
        const auto &graph = ctx.graph;
        auto &weights = ctx.weights;
        const int n = graph.numInstructions();

        // Select propagators: confident instructions, most confident
        // first so the strongest signals win the blends they touch.
        // No row changes before the sort, so each row's confidence is
        // computed once.
        std::vector<double> confidence(n);
        std::vector<InstrId> selected;
        for (InstrId i = 0; i < n; ++i) {
            confidence[i] = weights.confidence(i);
            if (confidence[i] >= ctx.params.pathPropConfidence)
                selected.push_back(i);
        }
        std::stable_sort(selected.begin(), selected.end(),
                         [&](InstrId a, InstrId b) {
                             return confidence[a] > confidence[b];
                         });

        for (InstrId source : selected) {
            propagate(ctx, source, /*downward=*/true);
            propagate(ctx, source, /*downward=*/false);
        }
    }

  private:
    void
    propagate(PassContext &ctx, InstrId source, bool downward)
    {
        const auto &graph = ctx.graph;
        auto &weights = ctx.weights;
        const double threshold = ctx.params.pathPropConfidence;
        const double keep = ctx.params.pathPropBlend;

        InstrId current = source;
        while (true) {
            // Next undecided neighbour along the path; the least
            // confident one gains the most from the blend.
            const auto &next_set = downward ? graph.succs(current)
                                            : graph.preds(current);
            InstrId next = kNoInstr;
            double next_confidence = threshold;
            for (InstrId cand : next_set) {
                const double c = weights.confidence(cand);
                if (c < next_confidence) {
                    next = cand;
                    next_confidence = c;
                }
            }
            if (next == kNoInstr)
                break;
            auto row = weights.row(next);
            row.blendFrom(weights.row(source), keep);
            row.normalize();
            current = next;
        }
    }
};

} // namespace

std::unique_ptr<Pass>
makePathPropPass()
{
    return std::make_unique<PathPropPass>();
}

} // namespace csched
