/**
 * @file
 * Differential property test: the window-compact, cluster-blocked
 * engine (PreferenceMatrix) must agree bit-for-bit with the dense
 * time-major engine (DenseReferenceMatrix) on every operation
 * sequence.  "Bit-for-bit" is literal: weights are compared by their
 * IEEE-754 payloads, so even a +0.0/-0.0 disagreement or a reordered
 * summation (which changes rounding) fails the test.
 *
 * Seeded random scripts draw from the full mutation surface --
 * including the window restriction and noise ops whose compact
 * implementations skip work the dense engine performs explicitly,
 * widenings that move rows, whole-matrix ops on rows that still share
 * the initial row, snapshot/rollback copies, and repeated normalize()
 * calls that exercise the shared clean-skip predicate -- and
 * cross-check all derived observables (marginals, preferred slots,
 * runner-up, confidence, expected time) after every step.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "dense_reference_matrix.hh"
#include "convergent/preference_matrix.hh"
#include "support/rng.hh"

namespace csched {
namespace {

/** Exact-bits equality for finite doubles, with a readable failure. */
::testing::AssertionResult
sameBits(double blocked, double dense)
{
    if (std::bit_cast<uint64_t>(blocked) == std::bit_cast<uint64_t>(dense))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "blocked=" << blocked << " (0x" << std::hex
           << std::bit_cast<uint64_t>(blocked) << ") dense=" << std::dec
           << dense << " (0x" << std::hex << std::bit_cast<uint64_t>(dense)
           << ")";
}

/** Compare every observable of instruction @p i in both engines. */
void
expectRowIdentical(const PreferenceMatrix &blocked,
                   const DenseReferenceMatrix &dense, InstrId i)
{
    for (int t = 0; t < blocked.numTimes(); ++t)
        for (int c = 0; c < blocked.numClusters(); ++c)
            ASSERT_TRUE(sameBits(blocked.at(i, t, c), dense.at(i, t, c)))
                << "weight i=" << i << " t=" << t << " c=" << c;
    for (int c = 0; c < blocked.numClusters(); ++c)
        ASSERT_TRUE(
            sameBits(blocked.spaceMarginal(i, c), dense.spaceMarginal(i, c)))
            << "space marginal i=" << i << " c=" << c;
    for (int t = 0; t < blocked.numTimes(); ++t)
        ASSERT_TRUE(
            sameBits(blocked.timeMarginal(i, t), dense.timeMarginal(i, t)))
            << "time marginal i=" << i << " t=" << t;
    ASSERT_EQ(blocked.preferredCluster(i), dense.preferredCluster(i));
    ASSERT_EQ(blocked.preferredTime(i), dense.preferredTime(i));
    ASSERT_EQ(blocked.runnerUpCluster(i), dense.runnerUpCluster(i));
    ASSERT_EQ(blocked.expectedTime(i), dense.expectedTime(i));
    ASSERT_TRUE(sameBits(blocked.confidence(i), dense.confidence(i)))
        << "confidence i=" << i;
}

void
expectIdentical(const PreferenceMatrix &blocked,
                const DenseReferenceMatrix &dense)
{
    for (InstrId i = 0; i < blocked.numInstructions(); ++i)
        expectRowIdentical(blocked, dense, i);
}

TEST(MatrixDifferential, FreshMatricesAgree)
{
    const PreferenceMatrix blocked(4, 7, 3);
    const DenseReferenceMatrix dense(4, 7, 3);
    expectIdentical(blocked, dense);
}

TEST(MatrixDifferential, CleanSkipPredicateIsShared)
{
    PreferenceMatrix blocked(1, 5, 2);
    DenseReferenceMatrix dense(1, 5, 2);
    blocked.row(0).scaleCluster(1, 3.0);
    dense.scaleCluster(0, 1, 3.0);
    // Normalizing twice with no mutation in between: both engines must
    // take the clean-skip on the second call (a second rescale would
    // multiply by a 1 +/- 1ulp factor and change the low bits).
    for (int repeat = 0; repeat < 3; ++repeat) {
        blocked.row(0).normalize();
        dense.normalize(0);
        expectIdentical(blocked, dense);
    }
}

TEST(MatrixDifferential, WindowRestrictionIsBitTransparent)
{
    PreferenceMatrix blocked(2, 9, 3);
    DenseReferenceMatrix dense(2, 9, 3);
    blocked.row(0).restrictTimeWindow(2, 6);
    dense.restrictTimeWindow(0, 2, 6);
    blocked.row(0).normalize();
    dense.normalize(0);
    expectIdentical(blocked, dense);
    // Narrow further, then widen again via blend from the wide row.
    blocked.row(0).restrictTimeWindow(3, 5);
    dense.restrictTimeWindow(0, 3, 5);
    blocked.row(0).blendFrom(
        static_cast<const PreferenceMatrix &>(blocked).row(1), 0.5);
    dense.blend(0, 1, 0.5);
    blocked.row(0).normalize();
    dense.normalize(0);
    expectIdentical(blocked, dense);
}

TEST(MatrixDifferential, NoiseDrawsStayInLockstep)
{
    PreferenceMatrix blocked(2, 6, 2);
    DenseReferenceMatrix dense(2, 6, 2);
    // Zero out slots so the skip-without-drawing rule matters: if one
    // engine consumed an rng draw for a zero slot the sequences would
    // diverge on every later slot.
    blocked.row(0).restrictTimeWindow(1, 4);
    dense.restrictTimeWindow(0, 1, 4);
    blocked.row(0).zeroCluster(1);
    for (int t = 0; t < 6; ++t)
        dense.set(0, t, 1, 0.0);
    Rng rng_blocked(99);
    Rng rng_dense(99);
    for (InstrId i = 0; i < 2; ++i) {
        blocked.row(i).addPositiveNoise(rng_blocked, 0.7);
        dense.addPositiveNoise(i, rng_dense, 0.7);
        blocked.row(i).normalize();
        dense.normalize(i);
    }
    expectIdentical(blocked, dense);
}

TEST(MatrixDifferential, RestrictingASharedRowLeavesTheOthersShared)
{
    // A never-touched row references the shared initial row; narrowing
    // it stores only the window and must not disturb its neighbours.
    PreferenceMatrix blocked(3, 12, 5);
    DenseReferenceMatrix dense(3, 12, 5);
    blocked.row(1).restrictTimeWindow(4, 7);
    dense.restrictTimeWindow(1, 4, 7);
    expectIdentical(blocked, dense);
    blocked.row(1).normalize();
    dense.normalize(1);
    blocked.row(2).scaleCluster(3, 2.5);
    dense.scaleCluster(2, 3, 2.5);
    expectIdentical(blocked, dense);
}

TEST(MatrixDifferential, WideningPastAMaterialisedWindow)
{
    PreferenceMatrix blocked(3, 12, 3);
    DenseReferenceMatrix dense(3, 12, 3);
    // By set: a slot beyond the stored window moves the row.
    blocked.row(0).restrictTimeWindow(3, 5);
    dense.restrictTimeWindow(0, 3, 5);
    blocked.row(0).normalize();
    dense.normalize(0);
    blocked.row(0).set(9, 1, 0.25);
    dense.set(0, 9, 1, 0.25);
    blocked.row(0).normalize();
    dense.normalize(0);
    expectIdentical(blocked, dense);
    // By blendFrom: a narrow row blended from a wider one, then from
    // a shared (full-window) row.
    blocked.row(1).restrictTimeWindow(6, 7);
    dense.restrictTimeWindow(1, 6, 7);
    blocked.row(1).normalize();
    dense.normalize(1);
    const PreferenceMatrix &cb = blocked;
    blocked.row(1).blendFrom(cb.row(0), 0.5);
    dense.blend(1, 0, 0.5);
    blocked.row(1).normalize();
    dense.normalize(1);
    expectIdentical(blocked, dense);
    blocked.row(1).blendFrom(cb.row(2), 0.75);
    dense.blend(1, 2, 0.75);
    blocked.row(1).normalize();
    dense.normalize(1);
    expectIdentical(blocked, dense);
}

TEST(MatrixDifferential, EmptyWindowResetsToUniform)
{
    PreferenceMatrix blocked(2, 8, 4);
    DenseReferenceMatrix dense(2, 8, 4);
    // Row 0 is materialised first; row 1 goes empty while shared.
    blocked.row(0).restrictTimeWindow(2, 6);
    dense.restrictTimeWindow(0, 2, 6);
    for (InstrId i = 0; i < 2; ++i) {
        blocked.row(i).restrictTimeWindow(5, 5);
        dense.restrictTimeWindow(i, 5, 5);
        expectIdentical(blocked, dense);
        blocked.row(i).normalize();
        dense.normalize(i);
        blocked.row(i).scaleCluster(2, 3.0);
        dense.scaleCluster(i, 2, 3.0);
        blocked.row(i).normalize();
        dense.normalize(i);
    }
    expectIdentical(blocked, dense);
}

/**
 * Seeded random scripts over the full op surface, cross-checked after
 * every step: the per-row kernels, the whole-matrix operations that
 * act once on the shared initial row, and a snapshot/rollback pair
 * (copy-assign in both directions, as the scheduler does per pass).
 */
void
runRandomScripts(uint64_t seed, int rounds, int max_times,
                 int max_clusters)
{
    Rng script(seed);
    for (int round = 0; round < rounds; ++round) {
        const int n = 1 + script.range(5);
        const int times = 1 + script.range(max_times);
        const int clusters = 1 + script.range(max_clusters);
        PreferenceMatrix blocked(n, times, clusters);
        DenseReferenceMatrix dense(n, times, clusters);
        PreferenceMatrix blocked_snapshot = blocked;
        DenseReferenceMatrix dense_snapshot = dense;
        // Noise draws must come from engine-private streams with the
        // same seed so a skipped draw in one engine is a bug, not a
        // synchronisation artefact.
        const uint64_t noise_seed = seed + 1000 + round;
        Rng noise_blocked(noise_seed);
        Rng noise_dense(noise_seed);

        for (int step = 0; step < 60; ++step) {
            const InstrId i = script.range(n);
            auto row = blocked.row(i);
            switch (script.range(14)) {
              case 0: {
                const int t = script.range(times);
                const int c = script.range(clusters);
                const double v = script.uniform();
                row.set(t, c, v);
                dense.set(i, t, c, v);
                break;
              }
              case 1: {
                const int t = script.range(times);
                const int c = script.range(clusters);
                const double f = script.uniform() * 3.0;
                row.scaleSlot(t, c, f);
                dense.scale(i, t, c, f);
                break;
              }
              case 2: {
                const int c = script.range(clusters);
                const double f = script.uniform() * 3.0;
                row.scaleCluster(c, f);
                dense.scaleCluster(i, c, f);
                break;
              }
              case 3: {
                const int t = script.range(times);
                const double f = script.uniform() * 3.0;
                row.scaleTime(t, f);
                dense.scaleTime(i, t, f);
                break;
              }
              case 4: {
                std::vector<double> factors(clusters);
                for (int c = 0; c < clusters; ++c)
                    factors[c] = script.uniform() * 2.0;
                row.scaleClusters(factors.data());
                for (int c = 0; c < clusters; ++c)
                    dense.scaleCluster(i, c, factors[c]);
                break;
              }
              case 5: {
                const InstrId src = script.range(n);
                const double keep = script.uniform();
                row.blendFrom(
                    static_cast<const PreferenceMatrix &>(blocked).row(src),
                    keep);
                dense.blend(i, src, keep);
                break;
              }
              case 6: {
                const int lo = script.range(times + 1);
                const int hi = lo + script.range(times + 1 - lo);
                row.restrictTimeWindow(lo, hi);
                dense.restrictTimeWindow(i, lo, hi);
                break;
              }
              case 7: {
                const int c = script.range(clusters);
                row.zeroCluster(c);
                for (int t = 0; t < times; ++t)
                    dense.set(i, t, c, 0.0);
                break;
              }
              case 8: {
                const double amplitude = script.uniform();
                row.addPositiveNoise(noise_blocked, amplitude);
                dense.addPositiveNoise(i, noise_dense, amplitude);
                break;
              }
              case 9:
                // Repeat normalize on an already-clean row every so
                // often: the clean-skip must fire in both engines.
                row.normalize();
                dense.normalize(i);
                break;
              case 10: {
                const int c = script.range(clusters);
                blocked.zeroClusterAll(c);
                for (InstrId k = 0; k < n; ++k)
                    for (int t = 0; t < times; ++t)
                        dense.set(k, t, c, 0.0);
                break;
              }
              case 11:
                blocked.normalizeAll();
                dense.normalizeAll();
                break;
              case 12:
                blocked_snapshot = blocked;
                dense_snapshot = dense;
                break;
              case 13:
                blocked = blocked_snapshot;
                dense = dense_snapshot;
                ASSERT_NO_FATAL_FAILURE(expectIdentical(blocked, dense))
                    << "round " << round << " step " << step
                    << " rollback";
                break;
            }
            row.normalize();
            dense.normalize(i);
            ASSERT_NO_FATAL_FAILURE(expectRowIdentical(blocked, dense, i))
                << "round " << round << " step " << step;
        }
        ASSERT_NO_FATAL_FAILURE(
            expectIdentical(blocked_snapshot, dense_snapshot))
            << "round " << round << " snapshot";
        blocked.normalizeAll();
        dense.normalizeAll();
        ASSERT_NO_FATAL_FAILURE(expectIdentical(blocked, dense))
            << "round " << round << " final state";
    }
}

TEST(MatrixDifferential, RandomScriptsAreBitIdentical)
{
    runRandomScripts(4242, 12, 10, 4);
}

TEST(MatrixDifferential, RandomScriptsOnWideRowsAreBitIdentical)
{
    // Rounds with T up to 40 and C up to 16, where windows are wide
    // enough for rows to widen, move and compact repeatedly.
    runRandomScripts(777, 16, 40, 16);
}

} // namespace
} // namespace csched
