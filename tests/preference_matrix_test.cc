/**
 * @file
 * Unit and property tests for the preference matrix: the paper's
 * invariants, marginals, preferred slots, confidence, and the basic
 * operations of Section 3, exercised through the batched RowView API.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "convergent/preference_matrix.hh"
#include "support/rng.hh"

namespace csched {
namespace {

/** Sum of all weights of instruction @p i via the compat read path. */
double
rowSum(const PreferenceMatrix &w, InstrId i)
{
    double sum = 0.0;
    for (int t = 0; t < w.numTimes(); ++t)
        for (int c = 0; c < w.numClusters(); ++c)
            sum += w.at(i, t, c);
    return sum;
}

TEST(PreferenceMatrix, StartsUniformAndNormalised)
{
    const PreferenceMatrix w(3, 5, 4);
    const double expected = 1.0 / 20.0;
    for (InstrId i = 0; i < 3; ++i) {
        EXPECT_NEAR(rowSum(w, i), 1.0, 1e-12);
        EXPECT_NEAR(w.at(i, 0, 0), expected, 1e-12);
        EXPECT_NEAR(w.at(i, 4, 3), expected, 1e-12);
    }
}

TEST(PreferenceMatrix, MarginalsMatchBruteForce)
{
    PreferenceMatrix w(1, 4, 3);
    Rng rng(3);
    auto row = w.row(0);
    for (int t = 0; t < 4; ++t)
        for (int c = 0; c < 3; ++c)
            row.set(t, c, rng.uniform());
    for (int c = 0; c < 3; ++c) {
        double expected = 0.0;
        for (int t = 0; t < 4; ++t)
            expected += w.at(0, t, c);
        EXPECT_NEAR(w.spaceMarginal(0, c), expected, 1e-12);
    }
    for (int t = 0; t < 4; ++t) {
        double expected = 0.0;
        for (int c = 0; c < 3; ++c)
            expected += w.at(0, t, c);
        EXPECT_NEAR(w.timeMarginal(0, t), expected, 1e-12);
    }
}

TEST(PreferenceMatrix, ScaleClusterAffectsWholeColumn)
{
    PreferenceMatrix w(1, 3, 2);
    w.row(0).scaleCluster(1, 4.0);
    for (int t = 0; t < 3; ++t) {
        EXPECT_NEAR(w.at(0, t, 1), 4.0 / 6.0, 1e-12);
        EXPECT_NEAR(w.at(0, t, 0), 1.0 / 6.0, 1e-12);
    }
    EXPECT_EQ(w.preferredCluster(0), 1);
}

TEST(PreferenceMatrix, ScaleClustersAppliesPerClusterFactors)
{
    PreferenceMatrix w(1, 2, 3);
    const double factors[3] = {1.0, 2.0, 4.0};
    w.row(0).scaleClusters(factors);
    for (int t = 0; t < 2; ++t) {
        EXPECT_NEAR(w.at(0, t, 0), 1.0 / 6.0, 1e-12);
        EXPECT_NEAR(w.at(0, t, 1), 2.0 / 6.0, 1e-12);
        EXPECT_NEAR(w.at(0, t, 2), 4.0 / 6.0, 1e-12);
    }
    EXPECT_EQ(w.preferredCluster(0), 2);
}

TEST(PreferenceMatrix, ScaleTimeAffectsWholeRow)
{
    PreferenceMatrix w(1, 3, 2);
    w.row(0).scaleTime(2, 5.0);
    EXPECT_EQ(w.preferredTime(0), 2);
    EXPECT_NEAR(w.at(0, 2, 0), 5.0 / 6.0, 1e-12);
}

TEST(PreferenceMatrix, NormalizeRestoresInvariant)
{
    PreferenceMatrix w(1, 2, 2);
    auto row = w.row(0);
    row.set(0, 0, 3.0);
    row.set(1, 1, 1.0);
    row.normalize();
    EXPECT_NEAR(rowSum(w, 0), 1.0, 1e-12);
    EXPECT_GT(w.at(0, 0, 0), w.at(0, 1, 1));
}

TEST(PreferenceMatrix, NormalizeOfAllZeroResetsToUniform)
{
    PreferenceMatrix w(1, 2, 2);
    auto row = w.row(0);
    for (int t = 0; t < 2; ++t)
        for (int c = 0; c < 2; ++c)
            row.set(t, c, 0.0);
    row.normalize();
    EXPECT_NEAR(w.at(0, 1, 1), 0.25, 1e-12);
}

TEST(PreferenceMatrix, NormalizeOfCleanRowIsANoOp)
{
    PreferenceMatrix w(1, 3, 2);
    auto row = w.row(0);
    row.scaleCluster(1, 3.0);
    row.normalize();
    const double before = w.at(0, 1, 1);
    row.normalize();  // clean: must not rescale
    EXPECT_EQ(w.at(0, 1, 1), before);
    row.scaleCluster(1, 2.0);  // mutation clears the clean flag
    row.normalize();
    EXPECT_NEAR(rowSum(w, 0), 1.0, 1e-12);
}

TEST(PreferenceMatrix, RestrictTimeWindowZeroesOutsideSlots)
{
    PreferenceMatrix w(1, 6, 2);
    auto row = w.row(0);
    row.restrictTimeWindow(2, 5);
    EXPECT_EQ(row.windowLo(), 2);
    EXPECT_EQ(row.windowHi(), 5);
    for (int c = 0; c < 2; ++c) {
        EXPECT_EQ(w.at(0, 0, c), 0.0);
        EXPECT_EQ(w.at(0, 1, c), 0.0);
        EXPECT_EQ(w.at(0, 5, c), 0.0);
        EXPECT_GT(w.at(0, 2, c), 0.0);
        EXPECT_GT(w.at(0, 4, c), 0.0);
    }
    row.normalize();
    EXPECT_NEAR(rowSum(w, 0), 1.0, 1e-12);
    // Marginals outside the window are exactly zero.
    EXPECT_EQ(w.timeMarginal(0, 0), 0.0);
    EXPECT_GT(w.timeMarginal(0, 3), 0.0);
}

TEST(PreferenceMatrix, EmptyWindowResetsToUniformOnNormalize)
{
    PreferenceMatrix w(1, 4, 2);
    auto row = w.row(0);
    row.restrictTimeWindow(3, 3);  // empty: whole row squashed
    EXPECT_NEAR(rowSum(w, 0), 0.0, 1e-300);
    row.normalize();
    EXPECT_NEAR(w.at(0, 0, 0), 1.0 / 8.0, 1e-12);
    EXPECT_EQ(row.windowLo(), 0);
    EXPECT_EQ(row.windowHi(), 4);
}

TEST(PreferenceMatrix, SetOutsideWindowWidensIt)
{
    PreferenceMatrix w(1, 8, 1);
    auto row = w.row(0);
    row.restrictTimeWindow(2, 4);
    row.set(6, 0, 0.5);
    EXPECT_LE(row.windowLo(), 2);
    EXPECT_GE(row.windowHi(), 7);
    EXPECT_NEAR(w.timeMarginal(0, 6), 0.5, 1e-12);
    EXPECT_EQ(w.timeMarginal(0, 5), 0.0);
}

TEST(PreferenceMatrix, ZeroClusterClearsColumn)
{
    PreferenceMatrix w(1, 3, 2);
    w.row(0).zeroCluster(0);
    for (int t = 0; t < 3; ++t)
        EXPECT_EQ(w.at(0, t, 0), 0.0);
    EXPECT_EQ(w.spaceMarginal(0, 0), 0.0);
    EXPECT_EQ(w.preferredCluster(0), 1);
}

TEST(PreferenceMatrix, AddPositiveNoiseSkipsZeros)
{
    PreferenceMatrix w(1, 4, 2);
    Rng rng(11);
    auto row = w.row(0);
    row.restrictTimeWindow(1, 3);
    row.zeroCluster(0);
    row.addPositiveNoise(rng, 0.5);
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(w.at(0, t, 0), 0.0);  // zeros stay zero
    EXPECT_GT(w.at(0, 1, 1), 1.0 / 8.0);  // positives grew
    EXPECT_EQ(w.at(0, 0, 1), 0.0);
}

TEST(PreferenceMatrix, PreferredAndRunnerUp)
{
    PreferenceMatrix w(1, 1, 3);
    auto row = w.row(0);
    row.set(0, 0, 0.2);
    row.set(0, 1, 0.5);
    row.set(0, 2, 0.3);
    EXPECT_EQ(w.preferredCluster(0), 1);
    EXPECT_EQ(w.runnerUpCluster(0), 2);
    EXPECT_NEAR(w.confidence(0), 0.5 / 0.3, 1e-12);
}

TEST(PreferenceMatrix, ConfidenceOfSingleClusterMachineIsOne)
{
    const PreferenceMatrix w(1, 4, 1);
    EXPECT_EQ(w.runnerUpCluster(0), 0);
    EXPECT_DOUBLE_EQ(w.confidence(0), 1.0);
}

TEST(PreferenceMatrix, ConfidenceWithZeroRunnerUpIsLargeFinite)
{
    PreferenceMatrix w(1, 1, 2);
    auto row = w.row(0);
    row.set(0, 0, 1.0);
    row.set(0, 1, 0.0);
    EXPECT_GT(w.confidence(0), 1e6);
}

TEST(PreferenceMatrix, BlendIsConvexCombination)
{
    PreferenceMatrix w(2, 1, 2);
    auto a = w.row(0);
    auto b = w.row(1);
    a.set(0, 0, 1.0);
    a.set(0, 1, 0.0);
    b.set(0, 0, 0.0);
    b.set(0, 1, 1.0);
    a.blendFrom(b, 0.25);  // keep 25% of own weights
    EXPECT_NEAR(w.at(0, 0, 0), 0.25, 1e-12);
    EXPECT_NEAR(w.at(0, 0, 1), 0.75, 1e-12);
    // The source row is untouched.
    EXPECT_NEAR(w.at(1, 0, 1), 1.0, 1e-12);
}

TEST(PreferenceMatrix, BlendOfNormalisedRowsStaysNormalised)
{
    PreferenceMatrix w(2, 3, 3);
    auto a = w.row(0);
    auto b = w.row(1);
    a.scaleCluster(0, 9.0);
    a.normalize();
    b.scaleCluster(2, 9.0);
    b.normalize();
    a.blendFrom(b, 0.5);
    EXPECT_NEAR(rowSum(w, 0), 1.0, 1e-12);
}

TEST(PreferenceMatrix, BlendWidensWindowToUnion)
{
    PreferenceMatrix w(2, 8, 1);
    auto a = w.row(0);
    auto b = w.row(1);
    a.restrictTimeWindow(0, 3);
    a.normalize();
    b.restrictTimeWindow(5, 8);
    b.normalize();
    a.blendFrom(b, 0.5);
    EXPECT_LE(a.windowLo(), 0);
    EXPECT_GE(a.windowHi(), 8);
    EXPECT_GT(w.at(0, 6, 0), 0.0);  // mass arrived from the source
}

TEST(PreferenceMatrix, ExpectedTimeOfSymmetricRowIsCentre)
{
    const PreferenceMatrix w(1, 5, 2);
    EXPECT_EQ(w.expectedTime(0), 2);
}

TEST(PreferenceMatrix, ExpectedTimeFollowsMass)
{
    PreferenceMatrix w(1, 6, 1);
    w.row(0).scaleTime(5, 50.0);
    EXPECT_EQ(w.preferredTime(0), 5);
    EXPECT_GE(w.expectedTime(0), 4);
}

TEST(PreferenceMatrix, PreferredVectorsMatchScalars)
{
    PreferenceMatrix w(3, 2, 2);
    w.row(1).scaleCluster(1, 10.0);
    w.row(2).scaleTime(1, 10.0);
    const auto clusters = w.preferredClusters();
    const auto times = w.preferredTimes();
    for (InstrId i = 0; i < 3; ++i) {
        EXPECT_EQ(clusters[i], w.preferredCluster(i));
        EXPECT_EQ(times[i], w.preferredTime(i));
    }
}

TEST(PreferenceMatrix, WindowSpanExposesContiguousClusterBlock)
{
    PreferenceMatrix w(1, 6, 2);
    auto row = w.row(0);
    row.restrictTimeWindow(1, 4);
    row.normalize();
    const PreferenceMatrix &cw = w;
    const auto view = cw.row(0);
    const auto span = view.windowSpan(1);
    ASSERT_EQ(span.size(), 3u);
    for (size_t k = 0; k < span.size(); ++k)
        EXPECT_EQ(span[k],
                  w.at(0, view.windowLo() + static_cast<int>(k), 1));
}

TEST(PreferenceMatrix, MatrixViewRoundTrips)
{
    PreferenceMatrix w(2, 3, 2);
    auto view = w.view();
    EXPECT_EQ(view.numInstructions(), 2);
    view.row(0).scaleCluster(1, 5.0);
    view.normalizeAll();
    EXPECT_EQ(view.constRow(0).preferredCluster(), 1);
    EXPECT_NEAR(rowSum(w, 0), 1.0, 1e-12);
}

TEST(PreferenceMatrix, CopyIsIndependent)
{
    PreferenceMatrix w(1, 4, 2);
    auto row = w.row(0);
    row.restrictTimeWindow(1, 3);
    row.normalize();
    PreferenceMatrix copy = w;
    copy.row(0).scaleCluster(0, 100.0);
    copy.row(0).normalize();
    EXPECT_NEAR(rowSum(w, 0), 1.0, 1e-12);
    EXPECT_EQ(w.at(0, 1, 0), copy.at(0, 1, 0) == w.at(0, 1, 0)
                                 ? copy.at(0, 1, 0)
                                 : w.at(0, 1, 0));
    // The copy preserved the window bookkeeping.
    const PreferenceMatrix &cc = copy;
    EXPECT_EQ(cc.row(0).windowLo(), 1);
    EXPECT_EQ(cc.row(0).windowHi(), 3);
    EXPECT_EQ(copy.at(0, 0, 0), 0.0);
}

TEST(PreferenceMatrix, StoresOnlyTheWindowsRowsHold)
{
    // An INITTIME-style pass: restrict every row to its window, squash
    // a cluster, normalize.  The arena then holds each window's C
    // blocks and its time sums, plus the shared initial row -- never
    // the dense N x T x C matrix.
    const int n = 200;
    const int times = 40;
    const int clusters = 16;
    PreferenceMatrix w(n, times, clusters);
    Rng rng(5);
    size_t window_sum = 0;
    for (InstrId i = 0; i < n; ++i) {
        const int lo = rng.range(times);
        const int hi = lo + 1 + rng.range(std::min(4, times - lo));
        auto row = w.row(i);
        row.restrictTimeWindow(lo, hi);
        row.zeroCluster(rng.range(clusters));
        row.normalize();
        window_sum += row.windowHi() - row.windowLo();
    }
    const size_t slack = window_sum + static_cast<size_t>(times) *
                                          (clusters + 1);
    EXPECT_LE(w.storedDoubles(), window_sum * clusters + slack);
    EXPECT_LT(w.storedDoubles(),
              static_cast<size_t>(n) * times * clusters / 4);
    // A copy (the scheduler's rollback snapshot) is as small.
    const PreferenceMatrix copy = w;
    EXPECT_EQ(copy.storedDoubles(), w.storedDoubles());
}

TEST(PreferenceMatrix, WholeMatrixOpsActOnceForSharedRows)
{
    // zeroClusterAll + normalizeAll on an untouched matrix mask the
    // shared initial row: every row reads the masked values and stays
    // clean, and nothing is materialised.
    PreferenceMatrix w(50, 6, 4);
    const size_t before = w.storedDoubles();
    w.zeroClusterAll(1);
    w.normalizeAll();
    EXPECT_EQ(w.storedDoubles(), before);
    for (InstrId i = 0; i < 50; ++i) {
        EXPECT_EQ(w.spaceMarginal(i, 1), 0.0);
        EXPECT_NEAR(rowSum(w, i), 1.0, 1e-12);
    }
    // A row mutated afterwards leaves the others untouched.
    w.row(3).scaleCluster(2, 5.0);
    w.row(3).normalize();
    EXPECT_EQ(w.preferredCluster(3), 2);
    EXPECT_EQ(w.at(4, 0, 2), w.at(5, 0, 2));
    EXPECT_NEAR(w.at(4, 0, 2), 1.0 / 18.0, 1e-12);
}

/**
 * Property test: any sequence of the Section-3 operations followed by
 * normalization maintains the invariants.
 */
TEST(PreferenceMatrixProperty, RandomOperationsKeepInvariants)
{
    Rng rng(777);
    for (int round = 0; round < 20; ++round) {
        const int n = 1 + rng.range(6);
        const int times = 1 + rng.range(8);
        const int clusters = 1 + rng.range(5);
        PreferenceMatrix w(n, times, clusters);
        for (int step = 0; step < 50; ++step) {
            const InstrId i = rng.range(n);
            auto row = w.row(i);
            switch (rng.range(7)) {
              case 0:
                row.scaleSlot(rng.range(times), rng.range(clusters),
                              rng.uniform() * 3.0);
                break;
              case 1:
                row.scaleCluster(rng.range(clusters),
                                 rng.uniform() * 3.0);
                break;
              case 2:
                row.scaleTime(rng.range(times), rng.uniform() * 3.0);
                break;
              case 3:
                row.blendFrom(w.row(rng.range(n)), rng.uniform());
                break;
              case 4:
                row.set(rng.range(times), rng.range(clusters),
                        rng.uniform());
                break;
              case 5: {
                const int lo = rng.range(times);
                row.restrictTimeWindow(lo, lo + 1 + rng.range(times));
                break;
              }
              case 6:
                row.addPositiveNoise(rng, rng.uniform());
                break;
            }
            row.normalize();
        }
        w.normalizeAll();
        for (InstrId i = 0; i < n; ++i) {
            EXPECT_NEAR(rowSum(w, i), 1.0, 1e-9);
            double max_weight = 0.0;
            for (int t = 0; t < times; ++t)
                for (int c = 0; c < clusters; ++c) {
                    EXPECT_GE(w.at(i, t, c), 0.0);
                    max_weight = std::max(max_weight, w.at(i, t, c));
                }
            EXPECT_LE(max_weight, 1.0 + 1e-9);
            // Preferred slots are consistent with marginals.
            const int pc = w.preferredCluster(i);
            for (int c = 0; c < clusters; ++c)
                EXPECT_LE(w.spaceMarginal(i, c),
                          w.spaceMarginal(i, pc) + 1e-12);
            // Nothing outside the feasible window carries weight.
            const PreferenceMatrix &cw = w;
            const auto view = cw.row(i);
            for (int t = 0; t < view.windowLo(); ++t)
                for (int c = 0; c < clusters; ++c)
                    EXPECT_EQ(w.at(i, t, c), 0.0);
            for (int t = view.windowHi(); t < times; ++t)
                for (int c = 0; c < clusters; ++c)
                    EXPECT_EQ(w.at(i, t, c), 0.0);
        }
    }
}

// The same mutation sequence the removed per-element shims used to
// cover, spelled natively in RowView: the coverage survives the
// compatibility surface it was written for.
TEST(PreferenceMatrixCompat, RowViewMutationSequence)
{
    PreferenceMatrix w(2, 2, 2);
    w.row(0).set(0, 0, 3.0);
    w.row(0).scaleSlot(0, 0, 2.0);
    w.row(0).scaleCluster(1, 0.5);
    w.row(0).scaleTime(1, 0.25);
    w.row(0).normalize();
    EXPECT_NEAR(rowSum(w, 0), 1.0, 1e-12);
    w.row(1).blendFrom(w.row(0), 0.5);
    w.row(1).normalize();
    EXPECT_NEAR(rowSum(w, 1), 1.0, 1e-12);
    EXPECT_EQ(w.preferredCluster(0), 0);
}

TEST(PreferenceMatrixDeathTest, RejectsNegativeWeight)
{
    PreferenceMatrix w(1, 1, 1);
    EXPECT_DEATH(w.row(0).set(0, 0, -0.5), "negative");
}

TEST(PreferenceMatrixDeathTest, RejectsOutOfRange)
{
    PreferenceMatrix w(1, 2, 2);
    EXPECT_DEATH(w.at(0, 2, 0), "out of range");
    EXPECT_DEATH(w.at(1, 0, 0), "out of range");
}

} // namespace
} // namespace csched
