/**
 * @file
 * Deterministic random-number helper.
 *
 * Every stochastic model in the library (cloud transients, workload
 * jitter) draws from an explicitly-seeded Rng so that tests and bench
 * tables are reproducible run to run.
 */

#pragma once

#include <cstdint>
#include <random>

namespace heb {

/**
 * SplitMix64: a tiny, fully-specified 64-bit PRNG (Steele et al.,
 * "Fast splittable pseudorandom number generators").
 *
 * Unlike the std:: distributions, every draw is defined bit-for-bit
 * by the algorithm itself, so two builds — or two thread-pool lanes
 * replaying the same seed — produce *identical* streams. The fault
 * subsystem generates its event plans exclusively from SplitMix64 so
 * Monte-Carlo availability sweeps are reproducible and byte-identical
 * at any `--jobs` value.
 *
 * fork() derives an independent child stream from a label, letting
 * each fault kind (or scenario index) own its own stream: adding
 * events of one kind never perturbs the draws of another.
 */
class SplitMix64
{
  public:
    /** Construct with an explicit seed. */
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform double in [0, 1) with 53 random bits. */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * nextDouble();
    }

    /** Exponential draw with the given rate (inverse-CDF method). */
    double exponential(double rate);

    /** Uniform integer in [0, n). Undefined for n == 0. */
    std::uint64_t
    below(std::uint64_t n)
    {
        return next() % n;
    }

    /**
     * Derive an independent stream for @p label. The child seed is
     * one SplitMix64 step of (state XOR mixed label), so distinct
     * labels give uncorrelated streams and the parent is unchanged.
     */
    SplitMix64
    fork(std::uint64_t label) const
    {
        SplitMix64 child(state_ ^
                         (label * 0x9e3779b97f4a7c15ULL + 1ULL));
        child.state_ = child.next();
        return child;
    }

    /** Raw engine state, for checkpointing. */
    std::uint64_t state() const { return state_; }

    /** Restore a state previously read with state(). */
    void setState(std::uint64_t state) { state_ = state; }

  private:
    std::uint64_t state_;
};

/** Seedable wrapper around a Mersenne Twister with typed draws. */
class Rng
{
  public:
    /** Construct with an explicit seed. */
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    int uniformInt(int lo, int hi);

    /**
     * Normal draw with the given mean/stddev (stddev >= 0; 0 returns
     * @p mean but still consumes a draw).
     */
    double normal(double mean, double stddev);

    /** Exponential draw with the given rate (lambda). */
    double exponential(double rate);

    /** Bernoulli trial with success probability @p p. */
    bool chance(double p);

    /**
     * Log-normal draw parameterized by the *resulting* mean and
     * sigma (>= 0) of the underlying normal; handy for heavy-tail
     * power bursts.
     */
    double logNormalWithMean(double mean, double sigma);

    /** Underlying engine, for std distributions not wrapped here. */
    std::mt19937_64 &engine() { return engine_; }

    /** Read-only engine access, for checkpoint serialization. */
    const std::mt19937_64 &engine() const { return engine_; }

  private:
    std::mt19937_64 engine_;
};

} // namespace heb
