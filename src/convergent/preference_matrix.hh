/**
 * @file
 * The convergent-scheduling preference matrix (Section 3 of the paper).
 *
 * Preferences are a three-dimensional weight matrix W[i][t][c] over
 * instructions, time slots, and clusters, with as many time slots as
 * the critical-path length.  The class maintains the paper's
 * invariants
 *
 *     0 <= W[i][t][c] <= 1      and      sum_{t,c} W[i][t][c] = 1
 *
 * (restored by normalize()), and exposes the derived quantities every
 * pass consumes -- space/time marginals, preferred cluster and time,
 * runner-up cluster, and confidence (the ratio of the top two cluster
 * marginals).
 *
 * Engine layout (see DESIGN.md section 10).  Every row carries a
 * feasible time window [lo, hi): every slot outside the window is
 * exactly +0.0, so only the window is stored.  One arena holds the
 * rows; a per-row table gives each row's offset and window, and
 * inside its extent a row is cluster-blocked over its window,
 *
 *     data[off + c * w + (t - lo)]        (w = hi - lo)
 *
 * followed by the row's w time sums (the time-marginal cache).  The
 * inner dimension of the hottest batched operation (scaleCluster)
 * is therefore one contiguous w-long block.  Space sums are cached
 * per row beside the table; scaleCluster refreshes exactly the one
 * touched cluster sum while it multiplies, scaleTime exactly the one
 * touched time sum, and only row-wide mutations invalidate a side.
 *
 * Copy-on-write start.  A fresh matrix stores one row: the shared
 * initial row, uniform over [0, T).  Every instruction starts as a
 * reference to it, and a row's first mutation gives it its own
 * extent holding only what that mutation needs -- restrictTimeWindow
 * copies just the narrowed window, so INITTIME never builds the dense
 * N x T x C matrix.  Whole-matrix operations (zeroClusterAll,
 * normalizeAll) apply to the shared row once on behalf of every row
 * still referencing it.  A mutation that widens a row (set, blendFrom,
 * normalize's reset to uniform) moves the row to the end of the arena;
 * when the dead space left behind exceeds the live part the arena is
 * compacted.  A copy of the matrix -- the scheduler's per-pass
 * rollback snapshot -- thus copies only the windows rows hold.
 *
 * Skipping the slots outside a window is bit-transparent: weights are
 * non-negative, x + (+0.0) == x and (+0.0) * f == +0.0 bitwise, so
 * windowed sums and scales produce the bits a full-row walk would
 * (tests/matrix_differential_test.cc holds the engine to that against
 * the dense reference).  Every summation a kernel performs keeps the
 * order of the dense engine (space marginals ascend t per cluster,
 * time marginals ascend c per slot, normalize ascends t-major).
 *
 * Mutation goes through RowView, a cursor that validates the row
 * index once and then applies fused batched kernels with no
 * per-element dispatch or bounds rechecks.  The per-element read path
 * at() is the supported compatibility surface for traces and JSON
 * emitters.  A span a cursor hands out (windowSpan) stays valid only
 * until the next mutation of the matrix, which may move rows.
 */

#ifndef CSCHED_CONVERGENT_PREFERENCE_MATRIX_HH
#define CSCHED_CONVERGENT_PREFERENCE_MATRIX_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ir/instruction.hh"

namespace csched {

class Rng;

/** Per-instruction (time x cluster) weights, stored window-compact. */
class PreferenceMatrix
{
  public:
    class RowView;
    class ConstRowView;
    class MatrixView;

    /**
     * Create a matrix with uniform weights: every (t, c) slot of every
     * instruction gets 1 / (num_times * num_clusters).
     */
    PreferenceMatrix(int num_instrs, int num_times, int num_clusters);

    int numInstructions() const { return numInstrs_; }
    int numTimes() const { return numTimes_; }
    int numClusters() const { return numClusters_; }

    /** Batched mutation cursor for instruction @p i. */
    RowView row(InstrId i);

    /** Batched read cursor for instruction @p i. */
    ConstRowView row(InstrId i) const;

    /** Whole-matrix cursor (bulk helpers over row()). */
    MatrixView view();

    /**
     * Weight of instruction @p i at time @p t on cluster @p c.  The
     * per-element compatibility read path (traces, JSON, tests);
     * batched readers go through row().
     */
    double at(InstrId i, int t, int c) const;

    /** normalize() every instruction. */
    void normalizeAll();

    /**
     * zeroCluster(@p c) on every instruction: one fill of the shared
     * initial row covers every row that still references it.
     */
    void zeroClusterAll(int c);

    /**
     * Doubles the arena holds, live and dead: what a copy of the
     * matrix copies.
     */
    size_t storedDoubles() const { return arena_.size(); }

    /** Sum over time of W[i][.][c]. */
    double spaceMarginal(InstrId i, int c) const;

    /** Sum over clusters of W[i][t][.]. */
    double timeMarginal(InstrId i, int t) const;

    /** argmax_c of the space marginal (lowest index wins ties). */
    int preferredCluster(InstrId i) const;

    /** argmax_t of the time marginal (lowest index wins ties). */
    int preferredTime(InstrId i) const;

    /**
     * Expectation of the time marginal, rounded to a slot.  A more
     * noise-robust summary of the temporal preference than the argmax
     * when several slots carry similar weight.
     */
    int expectedTime(InstrId i) const;

    /**
     * Second-best cluster by space marginal; for single-cluster
     * machines this equals the preferred cluster.
     */
    int runnerUpCluster(InstrId i) const;

    /**
     * Confidence of the current spatial assignment: the ratio of the
     * preferred cluster's marginal to the runner-up's (Section 3).
     * Returns a large finite value when the runner-up marginal is 0.
     */
    double confidence(InstrId i) const;

    /** Preferred cluster of every instruction. */
    std::vector<int> preferredClusters() const;

    /** Preferred time of every instruction. */
    std::vector<int> preferredTimes() const;

  private:
    friend class RowView;
    friend class ConstRowView;

    /** Where a row lives in the arena, and its feasible window. */
    struct Extent
    {
        size_t off; ///< C blocks of w weights, then w time sums
        int lo;
        int hi;
    };

    // Per-row state bits (flags_).
    static constexpr uint8_t kSpaceValid = 1; ///< space sums current
    static constexpr uint8_t kTimeValid = 2;  ///< time sums current
    static constexpr uint8_t kClean = 4;      ///< normalized, untouched
    static constexpr uint8_t kShared = 8;     ///< references row N

    void checkInstr(InstrId i) const;
    void checkIndex(InstrId i, int t, int c) const;

    /**
     * The row whose extent, flags and caches stand for instruction
     * @p i: @p i itself, or the shared initial row (index N) while
     * @p i still references it.
     */
    InstrId
    holder(InstrId i) const
    {
        return (flags_[i] & kShared) != 0 ? numInstrs_ : i;
    }
    const Extent &extent(InstrId i) const { return rows_[holder(i)]; }

    double *
    rowData(InstrId k) const
    {
        return arena_.data() + rows_[k].off;
    }
    /** The window-long block of cluster @p c (c == C: time sums). */
    double *
    block(InstrId k, int c) const
    {
        return rowData(k) +
               static_cast<size_t>(c) * (rows_[k].hi - rows_[k].lo);
    }
    double *timeSums(InstrId k) const { return block(k, numClusters_); }
    double *
    spaceSums(InstrId k) const
    {
        return spaceCache_.data() + static_cast<size_t>(k) * numClusters_;
    }
    /** W[i][t][c], +0.0 outside the row's window (no range checks). */
    double value(InstrId i, int t, int c) const;

    /** Give row @p i its own extent if it still shares row N. */
    void own(InstrId i);
    /**
     * Re-store row @p i over window [lo, hi), which contains or is
     * contained in its current window: the overlap keeps its values,
     * new slots are +0.0.  Moves rows (so no arena pointer survives
     * it) and may compact the arena.
     */
    void reshape(InstrId i, int lo, int hi);
    void compactIfSparse();

    /** A mutation touched row @p i: caches stale, row not normalized. */
    void markMutated(InstrId i);

    void refreshSpace(InstrId k) const;
    void refreshTime(InstrId k) const;

    // Kernels on a stored row (an owned row, or row N on behalf of
    // every row sharing it).
    void zeroStoredCluster(InstrId k, int c);
    void normalizeStored(InstrId k);

    // The batched kernels behind RowView (documented there).
    void rowSet(InstrId i, int t, int c, double value);
    void rowScaleSlot(InstrId i, int t, int c, double factor);
    void rowScaleCluster(InstrId i, int c, double factor);
    void rowScaleClusters(InstrId i, const double *factors);
    void rowScaleTime(InstrId i, int t, double factor);
    void rowZeroCluster(InstrId i, int c);
    void rowRestrictTimeWindow(InstrId i, int lo, int hi);
    void rowAddPositiveNoise(InstrId i, Rng &rng, double amplitude);
    void rowBlendFrom(InstrId i, InstrId other, double w);
    void rowNormalize(InstrId i);

    int numInstrs_;
    int numTimes_;
    int numClusters_;

    /**
     * The weight arena: the shared initial row, then every owned
     * row's extent.  Mutable because const readers refresh the time
     * sums stored beside each row.  Offsets (not pointers) keep the
     * class default-copyable, which the scheduler's snapshot/rollback
     * protocol relies on.
     */
    mutable std::vector<double> arena_;
    size_t dead_ = 0; ///< arena doubles no row uses any more

    /** N + 1 extents: one per instruction, then the shared row. */
    std::vector<Extent> rows_;
    /** Space sums, C per row (N + 1 rows). */
    mutable std::vector<double> spaceCache_;
    /**
     * State bits per row (N + 1).  kClean is set by normalize(),
     * cleared by every mutation, and normalize() returns immediately
     * while it is set -- the cached row sum is exactly the
     * post-normalize sum, no epsilon test needed.
     */
    mutable std::vector<uint8_t> flags_;
    int numShared_; ///< instructions still referencing row N
};

/**
 * Read-only batched cursor over one instruction's (time x cluster)
 * row.  Validates the row index at construction; the accessors do no
 * further per-element dispatch.
 */
class PreferenceMatrix::ConstRowView
{
  public:
    int numTimes() const { return m_->numTimes_; }
    int numClusters() const { return m_->numClusters_; }

    /** Feasible window: slots outside [windowLo, windowHi) are 0. */
    int windowLo() const { return m_->extent(i_).lo; }
    int windowHi() const { return m_->extent(i_).hi; }

    double at(int t, int c) const { return m_->value(i_, t, c); }

    /**
     * Cluster @p c's weights over the feasible window, contiguous;
     * valid until the next mutation of the matrix.
     */
    std::span<const double>
    windowSpan(int c) const
    {
        return {m_->block(m_->holder(i_), c),
                static_cast<size_t>(windowHi() - windowLo())};
    }

    double spaceMarginal(int c) const;
    double timeMarginal(int t) const;
    int preferredCluster() const;
    int preferredTime() const;
    double confidence() const;

  private:
    friend class PreferenceMatrix;
    ConstRowView(const PreferenceMatrix *m, InstrId i) : m_(m), i_(i) {}

    const PreferenceMatrix *m_;
    InstrId i_;
};

/**
 * Mutating batched cursor over one instruction's row.  Every method
 * is a fused kernel: it applies the mutation over contiguous spans
 * (restricted to the feasible window) and maintains the marginal
 * caches incrementally where the summation order allows, with no
 * per-element bounds rechecks.
 */
class PreferenceMatrix::RowView
{
  public:
    int numTimes() const { return m_->numTimes_; }
    int numClusters() const { return m_->numClusters_; }
    int windowLo() const { return m_->extent(i_).lo; }
    int windowHi() const { return m_->extent(i_).hi; }

    double at(int t, int c) const { return m_->value(i_, t, c); }

    /** A RowView also reads: converts to the read-only cursor. */
    operator ConstRowView() const { return ConstRowView(m_, i_); }

    /** Overwrite one weight (>= 0); widens the window if needed. */
    void set(int t, int c, double value) { m_->rowSet(i_, t, c, value); }

    /** Multiply one weight by @p factor (>= 0). */
    void
    scaleSlot(int t, int c, double factor)
    {
        m_->rowScaleSlot(i_, t, c, factor);
    }

    /**
     * Multiply cluster @p c's whole block by @p factor and refresh
     * its space marginal in the same sweep.
     */
    void
    scaleCluster(int c, double factor)
    {
        m_->rowScaleCluster(i_, c, factor);
    }

    /**
     * Multiply every cluster block by its own factor (an array of
     * numClusters() values), one fused sweep over the row.
     */
    void
    scaleClusters(const double *factors)
    {
        m_->rowScaleClusters(i_, factors);
    }

    /**
     * Multiply time slot @p t across clusters by @p factor and
     * refresh that slot's time marginal in the same sweep.
     */
    void
    scaleTime(int t, double factor)
    {
        m_->rowScaleTime(i_, t, factor);
    }

    /** Set cluster @p c's whole block to zero. */
    void zeroCluster(int c) { m_->rowZeroCluster(i_, c); }

    /**
     * Squash every slot outside [lo, hi) to zero and shrink the
     * feasible window to the intersection; subsequent batched
     * operations on this row iterate the window only.
     */
    void
    restrictTimeWindow(int lo, int hi)
    {
        m_->rowRestrictTimeWindow(i_, lo, hi);
    }

    /**
     * Add rng.uniform() * amplitude to every positive weight, drawing
     * in ascending (t, c) order (zero weights draw nothing, so
     * infeasible slots stay zero and the draw sequence matches the
     * per-element formulation exactly).
     */
    void
    addPositiveNoise(Rng &rng, double amplitude)
    {
        m_->rowAddPositiveNoise(i_, rng, amplitude);
    }

    /**
     * Linear combination of Section 3 with n = 2:
     * W[this] <- keep * W[this] + (1 - keep) * W[src], elementwise.
     * The window widens to the union of the two rows' windows.
     */
    void
    blendFrom(const ConstRowView &src, double keep)
    {
        m_->rowBlendFrom(i_, src.i_, keep);
    }

    /**
     * Restore the sum-to-one invariant.  If every weight was squashed
     * to zero the row resets to uniform (no pass may make an
     * instruction unschedulable).  A row that is still clean from a
     * previous normalize -- no mutation since -- returns without
     * rescanning.
     */
    void normalize() { m_->rowNormalize(i_); }

    // Readers mirroring ConstRowView, so a pass can interleave reads
    // with mutations through one cursor.
    double
    spaceMarginal(int c) const
    {
        return ConstRowView(m_, i_).spaceMarginal(c);
    }
    double
    timeMarginal(int t) const
    {
        return ConstRowView(m_, i_).timeMarginal(t);
    }
    int
    preferredCluster() const
    {
        return ConstRowView(m_, i_).preferredCluster();
    }

  private:
    friend class PreferenceMatrix;
    RowView(PreferenceMatrix *m, InstrId i) : m_(m), i_(i) {}

    PreferenceMatrix *m_;
    InstrId i_;
};

/** Whole-matrix cursor: bulk helpers expressed over row(). */
class PreferenceMatrix::MatrixView
{
  public:
    int numInstructions() const { return m_->numInstructions(); }
    int numTimes() const { return m_->numTimes(); }
    int numClusters() const { return m_->numClusters(); }

    RowView row(InstrId i) { return m_->row(i); }
    ConstRowView constRow(InstrId i) const
    {
        return static_cast<const PreferenceMatrix *>(m_)->row(i);
    }

    /** normalize() every row. */
    void normalizeAll() { m_->normalizeAll(); }

  private:
    friend class PreferenceMatrix;
    explicit MatrixView(PreferenceMatrix *m) : m_(m) {}

    PreferenceMatrix *m_;
};

inline PreferenceMatrix::RowView
PreferenceMatrix::row(InstrId i)
{
    checkInstr(i);
    return RowView(this, i);
}

inline PreferenceMatrix::ConstRowView
PreferenceMatrix::row(InstrId i) const
{
    checkInstr(i);
    return ConstRowView(this, i);
}

inline PreferenceMatrix::MatrixView
PreferenceMatrix::view()
{
    return MatrixView(this);
}

} // namespace csched

#endif // CSCHED_CONVERGENT_PREFERENCE_MATRIX_HH
