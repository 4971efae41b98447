/**
 * @file
 * Physical-quantity helpers used throughout the HEB library.
 *
 * All quantities are carried as plain doubles in SI-ish base units
 * (watts, watt-hours, volts, amps, seconds). The helpers below give
 * the reader explicit conversion points instead of magic factors.
 */

#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace heb {

/** Watts per kilowatt. */
inline constexpr double kWattsPerKilowatt = 1000.0;

/** Seconds in one hour. */
inline constexpr double kSecondsPerHour = 3600.0;

/** Seconds in one minute. */
inline constexpr double kSecondsPerMinute = 60.0;

/** Hours in one day. */
inline constexpr double kHoursPerDay = 24.0;

/** Seconds in one day. */
inline constexpr double kSecondsPerDay = kSecondsPerHour * kHoursPerDay;

/** Days in one (average) year. */
inline constexpr double kDaysPerYear = 365.25;

/** Convert joules to watt-hours. */
constexpr double
joulesToWattHours(double joules)
{
    return joules / kSecondsPerHour;
}

/** Convert watt-hours to joules. */
constexpr double
wattHoursToJoules(double watt_hours)
{
    return watt_hours * kSecondsPerHour;
}

/** Convert kilowatt-hours to watt-hours. */
constexpr double
kwhToWh(double kwh)
{
    return kwh * kWattsPerKilowatt;
}

/** Convert watt-hours to kilowatt-hours. */
constexpr double
whToKwh(double wh)
{
    return wh / kWattsPerKilowatt;
}

/** Convert hours to seconds. */
constexpr double
hoursToSeconds(double hours)
{
    return hours * kSecondsPerHour;
}

/** Convert seconds to hours. */
constexpr double
secondsToHours(double seconds)
{
    return seconds / kSecondsPerHour;
}

/** Convert minutes to seconds. */
constexpr double
minutesToSeconds(double minutes)
{
    return minutes * kSecondsPerMinute;
}

/** Energy (Wh) delivered by @p watts of power over @p seconds. */
constexpr double
energyWh(double watts, double seconds)
{
    return watts * secondsToHours(seconds);
}

/** Average power (W) that delivers @p wh watt-hours in @p seconds. */
constexpr double
powerFromEnergy(double wh, double seconds)
{
    return wh / secondsToHours(seconds);
}

/** Amp-hours moved by @p amps over @p seconds. */
constexpr double
ampHours(double amps, double seconds)
{
    return amps * secondsToHours(seconds);
}

/**
 * Exactly std::fmod(@p x, @p y), without the libm call on the common
 * path: x > 0, y positive and finite, and x/y < 2^52. There the
 * truncated quotient q is the true one or one more, and the residue
 * fma(-q, y, x), moved up by y if negative, is exact (DESIGN.md §8).
 * Every other input, signed zeros included, goes to std::fmod.
 */
inline double
fastFmod(double x, double y)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double quotient = x / y;
    if (!(x > 0.0 && y > 0.0 && y < kInf && quotient < 0x1p52))
        return std::fmod(x, y);
    // 0 <= quotient < 2^52: the integer conversion is floor, inline.
    double q = static_cast<double>(static_cast<std::int64_t>(quotient));
    double r = std::fma(-q, y, x);
    return r < 0.0 ? r + y : r;
}

} // namespace heb
