/** @file Deterministic RNG wrapper. */

#include <gtest/gtest.h>

#include "util/rng.h"

namespace heb {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 50; ++i) {
        if (a.uniformInt(0, 1000000) == b.uniformInt(0, 1000000))
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        double v = r.uniform(2.0, 3.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, UniformIntInclusive)
{
    Rng r(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        int v = r.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments)
{
    Rng r(11);
    double acc = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        acc += r.normal(5.0, 2.0);
    EXPECT_NEAR(acc / n, 5.0, 0.1);
}

TEST(Rng, ZeroStddevReturnsMeanAndAdvancesEngine)
{
    Rng zero(17), unit(17);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(zero.normal(3.5, 0.0), 3.5);
        (void)unit.normal(3.5, 1.0);
    }
    EXPECT_EQ(zero.engine(), unit.engine());
    EXPECT_EQ(zero.normal(0.0, 1.0), unit.normal(0.0, 1.0));
    // A zero-sigma lognormal is exactly its mean's exp(log()) too.
    Rng ln(19);
    EXPECT_DOUBLE_EQ(ln.logNormalWithMean(10.0, 0.0), 10.0);
}

TEST(RngDeath, NegativeSigmaFatal)
{
    Rng r(1);
    EXPECT_EXIT(r.normal(0.0, -1.0), testing::ExitedWithCode(1),
                "stddev");
    EXPECT_EXIT(r.logNormalWithMean(1.0, -0.5),
                testing::ExitedWithCode(1), "sigma");
}

TEST(Rng, ChanceExtremes)
{
    Rng r(3);
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
    EXPECT_FALSE(r.chance(-1.0));
    EXPECT_TRUE(r.chance(2.0));
}

TEST(Rng, ExponentialPositive)
{
    Rng r(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_GT(r.exponential(0.5), 0.0);
    EXPECT_EXIT(r.exponential(0.0), testing::ExitedWithCode(1),
                "rate");
}

TEST(SplitMix64, KnownAnswerVector)
{
    // Reference outputs of the published splitmix64 algorithm for
    // seed 0 — a cross-platform bit-exactness contract, not just
    // self-consistency.
    SplitMix64 s(0);
    EXPECT_EQ(s.next(), 0xE220A8397B1DCDAFULL);
    EXPECT_EQ(s.next(), 0x6E789E6AA1B965F4ULL);
    EXPECT_EQ(s.next(), 0x06C45D188009454FULL);
}

TEST(SplitMix64, NextDoubleInUnitInterval)
{
    SplitMix64 s(99);
    for (int i = 0; i < 1000; ++i) {
        double v = s.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(SplitMix64, ForkIsIndependentAndPure)
{
    SplitMix64 parent(42);
    SplitMix64 a = parent.fork(1);
    SplitMix64 b = parent.fork(2);
    SplitMix64 a2 = parent.fork(1);
    // Same label -> same stream; different labels -> different.
    EXPECT_EQ(a.next(), a2.next());
    EXPECT_NE(a.next(), b.next());
    // fork() leaves the parent untouched.
    SplitMix64 fresh(42);
    EXPECT_EQ(parent.next(), fresh.next());
}

TEST(SplitMix64, ExponentialPositiveAndRateScales)
{
    SplitMix64 a(7), b(7);
    double sum_fast = 0.0, sum_slow = 0.0;
    for (int i = 0; i < 2000; ++i) {
        double fast = a.exponential(1.0);
        double slow = b.exponential(0.1);
        EXPECT_GT(fast, 0.0);
        sum_fast += fast;
        sum_slow += slow;
    }
    // Mean of Exp(rate) is 1/rate.
    EXPECT_NEAR(sum_fast / 2000.0, 1.0, 0.15);
    EXPECT_NEAR(sum_slow / 2000.0, 10.0, 1.5);
}

TEST(SplitMix64, ExponentialZeroRateFatal)
{
    SplitMix64 s(1);
    EXPECT_EXIT(s.exponential(0.0), testing::ExitedWithCode(1),
                "rate");
}

TEST(SplitMix64, BelowStaysInRange)
{
    SplitMix64 s(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(s.below(17), 17u);
}

TEST(Rng, LogNormalMeanApproximation)
{
    Rng r(13);
    double acc = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        acc += r.logNormalWithMean(10.0, 0.5);
    EXPECT_NEAR(acc / n, 10.0, 0.3);
}

} // namespace
} // namespace heb
