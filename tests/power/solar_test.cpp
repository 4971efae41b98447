/** @file Synthetic solar array model. */

#include <gtest/gtest.h>

#include "power/solar_array.h"
#include "util/units.h"

namespace heb {
namespace {

SolarArray
daySolar(std::uint64_t seed = 1)
{
    return SolarArray(SolarParams{}, kSecondsPerDay, 60.0, seed);
}

TEST(Solar, ZeroAtNight)
{
    SolarArray s = daySolar();
    EXPECT_DOUBLE_EQ(s.availablePowerW(0.0), 0.0);          // midnight
    EXPECT_DOUBLE_EQ(s.availablePowerW(23.0 * 3600.0), 0.0); // 23:00
}

TEST(Solar, GeneratesDuringDay)
{
    SolarArray s = daySolar();
    EXPECT_GT(s.availablePowerW(12.0 * 3600.0), 0.0);
}

TEST(Solar, NeverExceedsPlateRatingByMuch)
{
    SolarArray s = daySolar();
    // Allow the small multiplicative noise overshoot.
    EXPECT_LE(s.trace().max(), s.params().ratedPowerW * 1.25);
    EXPECT_GE(s.trace().min(), 0.0);
}

TEST(Solar, DeterministicForSeed)
{
    SolarArray a = daySolar(7), b = daySolar(7);
    EXPECT_DOUBLE_EQ(a.totalGenerationWh(), b.totalGenerationWh());
}

TEST(Solar, SeedsDiffer)
{
    SolarArray a = daySolar(1), b = daySolar(2);
    EXPECT_NE(a.totalGenerationWh(), b.totalGenerationWh());
}

TEST(Solar, CloudsReduceEnergyVsClearSky)
{
    SolarParams clear;
    clear.pLeaveClear = 0.0; // never leaves the clear state
    clear.noiseSigma = 0.0;
    SolarArray c(clear, kSecondsPerDay, 60.0, 1);

    SolarParams cloudy;
    cloudy.pLeaveClear = 0.5;
    cloudy.pLeavePartly = 0.05;
    cloudy.noiseSigma = 0.0;
    SolarArray k(cloudy, kSecondsPerDay, 60.0, 1);

    EXPECT_GT(c.totalGenerationWh(), k.totalGenerationWh());
}

TEST(Solar, ClearSkyEnergyMatchesHalfSine)
{
    SolarParams p;
    p.pLeaveClear = 0.0;
    p.noiseSigma = 0.0;
    SolarArray s(p, kSecondsPerDay, 60.0, 1);
    // Integral of rated * sin over 12 h = rated * (2/pi) * 12 h.
    double expected = p.ratedPowerW * 2.0 / 3.141592653589793 * 12.0;
    EXPECT_NEAR(s.totalGenerationWh(), expected, expected * 0.02);
}

TEST(Solar, HarvestAccounting)
{
    SolarArray s = daySolar();
    s.recordHarvest(100.0, 3600.0);
    EXPECT_NEAR(s.harvestedWh(), 100.0, 1e-9);
}

TEST(Solar, MultiDayRepeatsDiurnalPattern)
{
    SolarParams p;
    p.pLeaveClear = 0.0;
    p.noiseSigma = 0.0;
    SolarArray s(p, 2.0 * kSecondsPerDay, 60.0, 1);
    EXPECT_NEAR(s.availablePowerW(12.0 * 3600.0),
                s.availablePowerW(36.0 * 3600.0), 1e-6);
}

TEST(Solar, InvalidConfigRejected)
{
    SolarParams p;
    p.sunriseHour = 19.0;
    EXPECT_EXIT(SolarArray(p, 3600.0, 60.0, 1),
                testing::ExitedWithCode(1), "sunrise");
    EXPECT_EXIT(SolarArray(SolarParams{}, -1.0, 60.0, 1),
                testing::ExitedWithCode(1), "duration");
}

} // namespace
} // namespace heb
