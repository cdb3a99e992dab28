#include "support/rng.hh"

#include "support/logging.hh"
#include "support/str.hh"

namespace csched {

namespace {

/** splitmix64 step, used only to expand the seed into the full state. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits give a uniform double in [0, 1).
    return (next() >> 11) * 0x1.0p-53;
}

int
Rng::range(int bound)
{
    CSCHED_ASSERT(bound > 0, "range bound must be positive, got ", bound);
    return static_cast<int>(next() % static_cast<uint64_t>(bound));
}

int
Rng::between(int lo, int hi)
{
    CSCHED_ASSERT(lo <= hi, "between(", lo, ", ", hi, ") is empty");
    return lo + range(hi - lo + 1);
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

double
jitterFactor(const std::string &key, uint64_t n)
{
    Rng rng(fnv1aHash(key) ^ n);
    return 0.5 + rng.uniform();
}

} // namespace csched
