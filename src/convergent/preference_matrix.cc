#include "convergent/preference_matrix.hh"

#include <algorithm>
#include <cstring>

#include "support/logging.hh"
#include "support/rng.hh"

// Bit-identity note.  Every loop below that folds weights into a sum
// accumulates in the exact order the dense (time-major, full-row)
// engine used: space marginals ascend t within one cluster, time
// marginals ascend c within one slot, and normalize's row total
// ascends t-major across the whole row.  Slots outside a row's
// feasible window are exactly +0.0 -- they are not stored at all --
// and for non-negative weights x + (+0.0) == x and (+0.0) * f == +0.0
// bitwise, so restricting a sum or a scale to the window drops only
// terms that cannot change any partial sum.  Fused multiply+accumulate
// kernels keep the store and the accumulation in separate statements
// so the addend is the rounded, stored value.
// tests/matrix_differential_test.cc holds the engine to bit-identical
// agreement with the dense reference.

namespace csched {

PreferenceMatrix::PreferenceMatrix(int num_instrs, int num_times,
                                   int num_clusters)
    : numInstrs_(num_instrs),
      numTimes_(num_times),
      numClusters_(num_clusters),
      numShared_(num_instrs)
{
    CSCHED_ASSERT(num_instrs > 0, "matrix needs instructions");
    CSCHED_ASSERT(num_times > 0, "matrix needs time slots");
    CSCHED_ASSERT(num_clusters > 0, "matrix needs clusters");
    // The arena starts as the shared initial row alone: C uniform
    // blocks over [0, T) and T (not yet valid) time sums.
    const size_t slots = static_cast<size_t>(num_times) * num_clusters;
    arena_.assign(slots + num_times, 0.0);
    std::fill(arena_.begin(), arena_.begin() + slots,
              1.0 / static_cast<double>(slots));
    rows_.assign(num_instrs + 1, Extent{0, 0, num_times});
    spaceCache_.assign(static_cast<size_t>(num_instrs + 1) * num_clusters,
                       0.0);
    flags_.assign(num_instrs, kShared);
    flags_.push_back(0);
}

void
PreferenceMatrix::checkInstr(InstrId i) const
{
    CSCHED_ASSERT(i >= 0 && i < numInstrs_, "instruction ", i,
                  " out of range");
}

void
PreferenceMatrix::checkIndex(InstrId i, int t, int c) const
{
    checkInstr(i);
    CSCHED_ASSERT(t >= 0 && t < numTimes_, "time ", t, " out of range");
    CSCHED_ASSERT(c >= 0 && c < numClusters_, "cluster ", c,
                  " out of range");
}

double
PreferenceMatrix::value(InstrId i, int t, int c) const
{
    const InstrId k = holder(i);
    const Extent &e = rows_[k];
    if (t < e.lo || t >= e.hi)
        return 0.0;
    return block(k, c)[t - e.lo];
}

// ---- storage -------------------------------------------------------

void
PreferenceMatrix::own(InstrId i)
{
    if ((flags_[i] & kShared) != 0)
        reshape(i, 0, numTimes_);
}

void
PreferenceMatrix::reshape(InstrId i, int lo, int hi)
{
    const InstrId k = holder(i);
    const Extent old = rows_[k];
    const size_t blocks = static_cast<size_t>(numClusters_) + 1;
    const size_t old_w = old.hi - old.lo;
    const size_t new_w = hi - lo;
    if (k == i && new_w <= old_w) {
        // Narrowing in place: the new window lies inside the old one,
        // so every block (the time sums included) moves towards the
        // start of the extent, never over a block not yet moved.
        double *d = arena_.data() + old.off;
        if (new_w > 0)
            for (size_t b = 0; b < blocks; ++b)
                std::memmove(d + b * new_w, d + b * old_w + (lo - old.lo),
                             new_w * sizeof(double));
        dead_ += (old_w - new_w) * blocks;
        rows_[i] = Extent{old.off, lo, hi};
    } else {
        // Widening, or the first mutation of a shared row: a fresh
        // extent at the end of the arena.
        const size_t off = arena_.size();
        arena_.resize(off + new_w * blocks, 0.0);
        const double *src = arena_.data() + old.off;
        double *dst = arena_.data() + off;
        const int from = std::max(lo, old.lo);
        const int to = std::min(hi, old.hi);
        for (size_t b = 0; from < to && b < blocks; ++b)
            std::copy(src + b * old_w + (from - old.lo),
                      src + b * old_w + (to - old.lo),
                      dst + b * new_w + (from - lo));
        if (k == i) {
            dead_ += old_w * blocks;
        } else {
            // The row's caches start invalid; every caller mutates it
            // next, which would clear its clean bit anyway.
            flags_[i] = 0;
            --numShared_;
        }
        rows_[i] = Extent{off, lo, hi};
    }
    compactIfSparse();
}

void
PreferenceMatrix::compactIfSparse()
{
    const size_t live = arena_.size() - dead_;
    if (dead_ <= live)
        return;
    std::vector<double> packed;
    packed.reserve(live);
    const size_t blocks = static_cast<size_t>(numClusters_) + 1;
    for (InstrId k = 0; k <= numInstrs_; ++k) {
        if (k < numInstrs_ && (flags_[k] & kShared) != 0)
            continue;
        Extent &e = rows_[k];
        const auto begin = arena_.begin() + e.off;
        e.off = packed.size();
        packed.insert(packed.end(), begin,
                      begin + (e.hi - e.lo) * blocks);
    }
    arena_ = std::move(packed);
    dead_ = 0;
}

void
PreferenceMatrix::markMutated(InstrId i)
{
    flags_[i] &= ~(kSpaceValid | kTimeValid | kClean);
}

void
PreferenceMatrix::refreshSpace(InstrId k) const
{
    if ((flags_[k] & kSpaceValid) != 0)
        return;
    const int w = rows_[k].hi - rows_[k].lo;
    double *space = spaceSums(k);
    for (int c = 0; c < numClusters_; ++c) {
        const double *b = block(k, c);
        double sum = 0.0;
        for (int t = 0; t < w; ++t)
            sum += b[t];
        space[c] = sum;
    }
    flags_[k] |= kSpaceValid;
}

void
PreferenceMatrix::refreshTime(InstrId k) const
{
    if ((flags_[k] & kTimeValid) != 0)
        return;
    const size_t w = rows_[k].hi - rows_[k].lo;
    const double *r = rowData(k);
    double *time = timeSums(k);
    for (size_t t = 0; t < w; ++t) {
        double sum = 0.0;
        for (int c = 0; c < numClusters_; ++c)
            sum += r[c * w + t];
        time[t] = sum;
    }
    flags_[k] |= kTimeValid;
}

double
PreferenceMatrix::at(InstrId i, int t, int c) const
{
    checkIndex(i, t, c);
    return value(i, t, c);
}

// ---- batched row kernels -------------------------------------------

void
PreferenceMatrix::rowSet(InstrId i, int t, int c, double value)
{
    checkIndex(i, t, c);
    CSCHED_ASSERT(value >= 0.0, "negative weight ", value);
    own(i);
    const Extent &e = rows_[i];
    if (t < e.lo || t >= e.hi) {
        if (value == 0.0) {
            markMutated(i); // the slot is +0.0 already
            return;
        }
        // Widen the feasible window; the gap slots are zero.
        reshape(i, std::min(e.lo, t), std::max(e.hi, t + 1));
    }
    block(i, c)[t - rows_[i].lo] = value;
    markMutated(i);
}

void
PreferenceMatrix::rowScaleSlot(InstrId i, int t, int c, double factor)
{
    checkIndex(i, t, c);
    CSCHED_ASSERT(factor >= 0.0, "negative factor ", factor);
    own(i);
    const Extent &e = rows_[i];
    if (t >= e.lo && t < e.hi)
        block(i, c)[t - e.lo] *= factor;
    markMutated(i);
}

void
PreferenceMatrix::rowScaleCluster(InstrId i, int c, double factor)
{
    checkIndex(i, 0, c);
    CSCHED_ASSERT(factor >= 0.0, "negative factor ", factor);
    own(i);
    const int w = rows_[i].hi - rows_[i].lo;
    double *b = block(i, c);
    if ((flags_[i] & kSpaceValid) != 0) {
        // Fused: refresh this cluster's space marginal in the same
        // sweep (the other clusters' blocks are untouched, so their
        // cached sums stay exact).
        double sum = 0.0;
        for (int t = 0; t < w; ++t) {
            b[t] *= factor;
            sum += b[t];
        }
        spaceSums(i)[c] = sum;
    } else {
        for (int t = 0; t < w; ++t)
            b[t] *= factor;
    }
    flags_[i] &= ~(kTimeValid | kClean);
}

void
PreferenceMatrix::rowScaleClusters(InstrId i, const double *factors)
{
    checkInstr(i);
    own(i);
    const int w = rows_[i].hi - rows_[i].lo;
    const bool keep_space = (flags_[i] & kSpaceValid) != 0;
    double *space = spaceSums(i);
    for (int c = 0; c < numClusters_; ++c) {
        const double factor = factors[c];
        CSCHED_ASSERT(factor >= 0.0, "negative factor ", factor);
        double *b = block(i, c);
        if (keep_space) {
            double sum = 0.0;
            for (int t = 0; t < w; ++t) {
                b[t] *= factor;
                sum += b[t];
            }
            space[c] = sum;
        } else {
            for (int t = 0; t < w; ++t)
                b[t] *= factor;
        }
    }
    flags_[i] &= ~(kTimeValid | kClean);
}

void
PreferenceMatrix::rowScaleTime(InstrId i, int t, double factor)
{
    checkIndex(i, t, 0);
    CSCHED_ASSERT(factor >= 0.0, "negative factor ", factor);
    own(i);
    const Extent &e = rows_[i];
    if (t >= e.lo && t < e.hi) {
        const size_t w = e.hi - e.lo;
        double *r = rowData(i) + (t - e.lo);
        for (int c = 0; c < numClusters_; ++c)
            r[c * w] *= factor;
        if ((flags_[i] & kTimeValid) != 0) {
            double sum = 0.0;
            for (int c = 0; c < numClusters_; ++c)
                sum += r[c * w];
            timeSums(i)[t - e.lo] = sum;
        }
    }
    flags_[i] &= ~(kSpaceValid | kClean);
}

void
PreferenceMatrix::zeroStoredCluster(InstrId k, int c)
{
    double *b = block(k, c);
    std::fill(b, b + (rows_[k].hi - rows_[k].lo), 0.0);
    if ((flags_[k] & kSpaceValid) != 0)
        spaceSums(k)[c] = 0.0;
    flags_[k] &= ~(kTimeValid | kClean);
}

void
PreferenceMatrix::rowZeroCluster(InstrId i, int c)
{
    checkIndex(i, 0, c);
    own(i);
    zeroStoredCluster(i, c);
}

void
PreferenceMatrix::zeroClusterAll(int c)
{
    checkIndex(0, 0, c);
    if (numShared_ > 0)
        zeroStoredCluster(numInstrs_, c);
    for (InstrId i = 0; i < numInstrs_; ++i)
        if ((flags_[i] & kShared) == 0)
            zeroStoredCluster(i, c);
}

void
PreferenceMatrix::rowRestrictTimeWindow(InstrId i, int lo, int hi)
{
    checkInstr(i);
    lo = std::max(lo, 0);
    hi = std::min(hi, numTimes_);
    const Extent &e = extent(i);
    int new_lo = std::max(e.lo, lo);
    int new_hi = std::min(e.hi, hi);
    if (new_lo >= new_hi) {
        // Empty feasible window: the whole row becomes zero (a
        // following normalize() resets it to uniform).
        new_lo = 0;
        new_hi = 0;
    }
    // A shared row stores only the narrowed window.
    if ((flags_[i] & kShared) != 0 || new_lo != e.lo || new_hi != e.hi)
        reshape(i, new_lo, new_hi);
    markMutated(i);
}

void
PreferenceMatrix::rowAddPositiveNoise(InstrId i, Rng &rng,
                                      double amplitude)
{
    checkInstr(i);
    CSCHED_ASSERT(amplitude >= 0.0, "negative amplitude ", amplitude);
    own(i);
    const size_t w = rows_[i].hi - rows_[i].lo;
    double *r = rowData(i);
    // Ascending (t, c) so the draw sequence matches the per-element
    // formulation; zero slots (infeasible or squashed) draw nothing.
    for (size_t t = 0; t < w; ++t) {
        for (int c = 0; c < numClusters_; ++c) {
            double &slot = r[c * w + t];
            if (slot <= 0.0)
                continue;
            slot = slot + rng.uniform() * amplitude;
        }
    }
    markMutated(i);
}

void
PreferenceMatrix::rowBlendFrom(InstrId i, InstrId other, double w)
{
    checkInstr(i);
    checkInstr(other);
    CSCHED_ASSERT(w >= 0.0 && w <= 1.0, "blend weight ", w,
                  " outside [0, 1]");
    own(i);
    // The blended row can pick up mass anywhere the source has some:
    // widen to the union of the two windows.
    const Extent dst_window = rows_[i];
    const Extent src_window = extent(other);
    const int lo = std::min(dst_window.lo, src_window.lo);
    const int hi = std::max(dst_window.hi, src_window.hi);
    if (lo != dst_window.lo || hi != dst_window.hi)
        reshape(i, lo, hi);
    // reshape may have moved (or compacted) the arena: derive both
    // row pointers only now.  Outside its window the source is +0.0,
    // and its term is computed as the dense engine computed it.
    const InstrId k = holder(other);
    const Extent &src = rows_[k];
    const double zero_term = (1.0 - w) * 0.0;
    const int head = src.lo - lo;
    const int src_w = src.hi - src.lo;
    const int w_new = hi - lo;
    for (int c = 0; c < numClusters_; ++c) {
        double *d = block(i, c);
        const double *s = block(k, c);
        for (int t = 0; t < head; ++t)
            d[t] = w * d[t] + zero_term;
        for (int t = 0; t < src_w; ++t)
            d[head + t] = w * d[head + t] + (1.0 - w) * s[t];
        for (int t = head + src_w; t < w_new; ++t)
            d[t] = w * d[t] + zero_term;
    }
    markMutated(i);
}

void
PreferenceMatrix::normalizeStored(InstrId k)
{
    const Extent &e = rows_[k];
    const size_t w = e.hi - e.lo;
    const double *r = rowData(k);
    // t-major accumulation, matching the flat full-row sum of the
    // per-element engine.
    double sum = 0.0;
    for (size_t t = 0; t < w; ++t)
        for (int c = 0; c < numClusters_; ++c)
            sum += r[c * w + t];
    if (sum <= 1e-300) {
        // Every slot was squashed; reset to uniform rather than leave
        // the instruction unschedulable.
        if (e.lo != 0 || e.hi != numTimes_)
            reshape(k, 0, numTimes_);
        const size_t slots = static_cast<size_t>(numTimes_) * numClusters_;
        double *d = rowData(k);
        std::fill(d, d + slots, 1.0 / static_cast<double>(slots));
    } else {
        const double inv = 1.0 / sum;
        for (int c = 0; c < numClusters_; ++c) {
            double *b = block(k, c);
            for (size_t t = 0; t < w; ++t)
                b[t] *= inv;
        }
    }
    flags_[k] = (flags_[k] & ~(kSpaceValid | kTimeValid)) | kClean;
}

void
PreferenceMatrix::rowNormalize(InstrId i)
{
    checkInstr(i);
    if ((flags_[holder(i)] & kClean) != 0) {
        // Unchanged since the last normalize: the row sum is exactly
        // the post-normalize sum, so rescanning cannot improve it.
        return;
    }
    own(i);
    normalizeStored(i);
}

void
PreferenceMatrix::normalizeAll()
{
    const InstrId shared = numInstrs_;
    if (numShared_ > 0 && (flags_[shared] & kClean) == 0)
        normalizeStored(shared);
    for (InstrId i = 0; i < numInstrs_; ++i)
        if ((flags_[i] & (kShared | kClean)) == 0)
            normalizeStored(i);
}

// ---- derived quantities --------------------------------------------

double
PreferenceMatrix::spaceMarginal(InstrId i, int c) const
{
    checkIndex(i, 0, c);
    const InstrId k = holder(i);
    refreshSpace(k);
    return spaceSums(k)[c];
}

double
PreferenceMatrix::timeMarginal(InstrId i, int t) const
{
    checkIndex(i, t, 0);
    const InstrId k = holder(i);
    const Extent &e = rows_[k];
    if (t < e.lo || t >= e.hi)
        return 0.0;
    refreshTime(k);
    return timeSums(k)[t - e.lo];
}

int
PreferenceMatrix::preferredCluster(InstrId i) const
{
    checkInstr(i);
    const InstrId k = holder(i);
    refreshSpace(k);
    const double *space = spaceSums(k);
    int best = 0;
    for (int c = 1; c < numClusters_; ++c)
        if (space[c] > space[best])
            best = c;
    return best;
}

int
PreferenceMatrix::preferredTime(InstrId i) const
{
    checkInstr(i);
    const InstrId k = holder(i);
    refreshTime(k);
    const Extent &e = rows_[k];
    const double *time = timeSums(k);
    // Slot 0 leads, as in a full-row scan; the +0.0 slots outside the
    // window never beat a non-negative sum.
    int best = 0;
    double best_sum = e.lo == 0 && e.hi > 0 ? time[0] : 0.0;
    for (int t = std::max(e.lo, 1); t < e.hi; ++t) {
        if (time[t - e.lo] > best_sum) {
            best = t;
            best_sum = time[t - e.lo];
        }
    }
    return best;
}

int
PreferenceMatrix::expectedTime(InstrId i) const
{
    checkInstr(i);
    const InstrId k = holder(i);
    refreshTime(k);
    const Extent &e = rows_[k];
    const double *time = timeSums(k);
    double total = 0.0;
    double weighted = 0.0;
    for (int t = e.lo; t < e.hi; ++t) {
        total += time[t - e.lo];
        weighted += time[t - e.lo] * t;
    }
    if (total <= 1e-300)
        return 0;
    return static_cast<int>(weighted / total + 0.5);
}

int
PreferenceMatrix::runnerUpCluster(InstrId i) const
{
    if (numClusters_ == 1)
        return 0;
    const InstrId k = holder(i);
    refreshSpace(k);
    const double *space = spaceSums(k);
    const int preferred = preferredCluster(i);
    int best = preferred == 0 ? 1 : 0;
    for (int c = 0; c < numClusters_; ++c)
        if (c != preferred && space[c] > space[best])
            best = c;
    return best;
}

double
PreferenceMatrix::confidence(InstrId i) const
{
    if (numClusters_ == 1)
        return 1.0;
    const double top = spaceMarginal(i, preferredCluster(i));
    const double second = spaceMarginal(i, runnerUpCluster(i));
    if (second <= 1e-300)
        return 1e9;
    return top / second;
}

std::vector<int>
PreferenceMatrix::preferredClusters() const
{
    std::vector<int> out(numInstrs_);
    for (InstrId i = 0; i < numInstrs_; ++i)
        out[i] = preferredCluster(i);
    return out;
}

std::vector<int>
PreferenceMatrix::preferredTimes() const
{
    std::vector<int> out(numInstrs_);
    for (InstrId i = 0; i < numInstrs_; ++i)
        out[i] = preferredTime(i);
    return out;
}

// ---- row-view readers ----------------------------------------------

double
PreferenceMatrix::ConstRowView::spaceMarginal(int c) const
{
    return m_->spaceMarginal(i_, c);
}

double
PreferenceMatrix::ConstRowView::timeMarginal(int t) const
{
    return m_->timeMarginal(i_, t);
}

int
PreferenceMatrix::ConstRowView::preferredCluster() const
{
    return m_->preferredCluster(i_);
}

int
PreferenceMatrix::ConstRowView::preferredTime() const
{
    return m_->preferredTime(i_);
}

double
PreferenceMatrix::ConstRowView::confidence() const
{
    return m_->confidence(i_);
}

} // namespace csched
