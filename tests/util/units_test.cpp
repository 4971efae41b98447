/** @file Unit conversions. */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "util/units.h"

namespace heb {
namespace {

TEST(Units, JoulesToWattHoursRoundTrip)
{
    EXPECT_DOUBLE_EQ(joulesToWattHours(3600.0), 1.0);
    EXPECT_DOUBLE_EQ(wattHoursToJoules(1.0), 3600.0);
    EXPECT_DOUBLE_EQ(wattHoursToJoules(joulesToWattHours(1234.5)),
                     1234.5);
}

TEST(Units, KwhConversions)
{
    EXPECT_DOUBLE_EQ(kwhToWh(2.5), 2500.0);
    EXPECT_DOUBLE_EQ(whToKwh(2500.0), 2.5);
}

TEST(Units, TimeConversions)
{
    EXPECT_DOUBLE_EQ(hoursToSeconds(2.0), 7200.0);
    EXPECT_DOUBLE_EQ(secondsToHours(1800.0), 0.5);
    EXPECT_DOUBLE_EQ(minutesToSeconds(10.0), 600.0);
}

TEST(Units, EnergyFromPower)
{
    // 100 W for 36 s = 1 Wh.
    EXPECT_DOUBLE_EQ(energyWh(100.0, 36.0), 1.0);
    EXPECT_DOUBLE_EQ(powerFromEnergy(1.0, 36.0), 100.0);
}

TEST(Units, AmpHours)
{
    EXPECT_DOUBLE_EQ(ampHours(2.0, 1800.0), 1.0);
}

TEST(Units, DayConstantsConsistent)
{
    EXPECT_DOUBLE_EQ(kSecondsPerDay, 86400.0);
    EXPECT_DOUBLE_EQ(kSecondsPerHour * kHoursPerDay, kSecondsPerDay);
}

/** fastFmod must return std::fmod's exact bits, NaN payloads included. */
void
expectFmodBits(double x, double y)
{
    ASSERT_EQ(std::bit_cast<std::uint64_t>(fastFmod(x, y)),
              std::bit_cast<std::uint64_t>(std::fmod(x, y)))
        << "x = " << std::hexfloat << x << ", y = " << y;
}

TEST(Units, FastFmodMatchesFmodOnRandomPairs)
{
    std::mt19937_64 rng(20240611);
    std::uniform_real_distribution<double> xs(0.0, 1e9);
    std::uniform_real_distribution<double> ys(0.5, 1e4);
    for (int i = 0; i < 10'000'000; ++i)
        expectFmodBits(xs(rng), ys(rng));
}

TEST(Units, FastFmodMatchesFmodAtPeriodMultiples)
{
    // The Table 1 periods (high + low phase, s) and the diurnal day
    // (h): x = k·P and up to six ulps either side, where fl(x/y)
    // rounds onto or across an integer and the fix-up branch runs.
    for (double period : {150.0, 240.0, 120.0, 480.0, 4800.0, 5400.0,
                          kHoursPerDay}) {
        for (int k = 0; k <= 200'000; ++k) {
            double x = k * period;
            double lo = x, hi = x;
            expectFmodBits(x, period);
            for (int ulp = 0; ulp < 6; ++ulp) {
                lo = std::nextafter(lo, 0.0);
                hi = std::nextafter(hi, 1e300);
                expectFmodBits(lo, period);
                expectFmodBits(hi, period);
            }
        }
    }
}

TEST(Units, FastFmodFallbackInputs)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double huge = std::numeric_limits<double>::max();
    const double values[] = {0.0,   -0.0,  1.0,  -1.0,   7.5,  -7.5,
                             240.0, 0x1p52, 0x1p53, 1e300, -1e300,
                             tiny,  -tiny, huge, -huge, kInf, -kInf,
                             nan,   -nan};
    for (double x : values)
        for (double y : values)
            expectFmodBits(x, y);
    // Quotients at, just below and beyond 2^52: the edge of the fast
    // path.
    for (double y : {0.5, 1.0, 3.0, 240.0})
        for (double x : {0x1p52 * y, std::nextafter(0x1p52 * y, 0.0),
                         0x1p60 * y + 1.0, 1e30})
            expectFmodBits(x, y);
}

} // namespace
} // namespace heb
