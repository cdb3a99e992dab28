/**
 * @file
 * Deterministic pseudo-random number generator.
 *
 * Every stochastic element in the library (the NOISE pass, the synthetic
 * workload generators, the random-DAG property tests) draws from this
 * generator so that runs are reproducible bit-for-bit across platforms.
 * The implementation is xoshiro256** which is fast, well distributed,
 * and has no global state.
 */

#ifndef CSCHED_SUPPORT_RNG_HH
#define CSCHED_SUPPORT_RNG_HH

#include <cstdint>
#include <string>

namespace csched {

/** Seedable, copyable PRNG with convenience draws. */
class Rng
{
  public:
    /** Construct from a 64-bit seed; any value (including 0) is fine. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit draw. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [0, bound); bound must be positive. */
    int range(int bound);

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    int between(int lo, int hi);

    /** Bernoulli draw with probability @p p of returning true. */
    bool chance(double p);

  private:
    uint64_t state_[4];
};

/**
 * Deterministic jitter factor in [0.5, 1.5) for draw @p n of the delay
 * family @p key (retry backoff, reconnect, quarantine, degraded
 * window): a pure function of (key, n), never of wall clock or thread
 * identity, so every jittered delay is reproducible and may appear in
 * deterministic diagnostics.
 */
double jitterFactor(const std::string &key, uint64_t n);

} // namespace csched

#endif // CSCHED_SUPPORT_RNG_HH
