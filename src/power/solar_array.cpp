#include "power/solar_array.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/logging.h"
#include "util/rng.h"
#include "util/units.h"

namespace heb {

namespace {

/** Markov cloud states. */
enum class Sky { Clear, Partly, Overcast };

} // namespace

TimeSeries
generateSolarTrace(const SolarParams &params,
                   double duration_seconds, double step_seconds,
                   std::uint64_t seed)
{
    if (params.sunriseHour >= params.sunsetHour)
        fatal("SolarArray: sunrise must precede sunset");
    if (duration_seconds <= 0.0 || step_seconds <= 0.0)
        fatal("SolarArray: duration and step must be positive");
    TimeSeries trace(step_seconds);

    Rng rng(seed);
    Sky sky = Sky::Clear;
    auto samples = static_cast<std::size_t>(duration_seconds /
                                            step_seconds);
    double p_step_scale = step_seconds / kSecondsPerMinute;

    double daylen = params.sunsetHour - params.sunriseHour;
    for (std::size_t i = 0; i < samples; ++i) {
        double t = static_cast<double>(i) * step_seconds;
        double hour = std::fmod(t / kSecondsPerHour, kHoursPerDay);

        // Clear-sky envelope: half-sine between sunrise and sunset.
        double envelope = 0.0;
        if (hour > params.sunriseHour && hour < params.sunsetHour) {
            double x = (hour - params.sunriseHour) / daylen;
            envelope = std::sin(std::numbers::pi * x);
        }

        // Markov cloud transitions, scaled to the sample step.
        double leave = 0.0;
        switch (sky) {
          case Sky::Clear: leave = params.pLeaveClear; break;
          case Sky::Partly: leave = params.pLeavePartly; break;
          case Sky::Overcast: leave = params.pLeaveOvercast; break;
        }
        if (rng.chance(std::min(1.0, leave * p_step_scale))) {
            switch (sky) {
              case Sky::Clear:
                sky = rng.chance(0.7) ? Sky::Partly : Sky::Overcast;
                break;
              case Sky::Partly:
                sky = rng.chance(0.5) ? Sky::Clear : Sky::Overcast;
                break;
              case Sky::Overcast:
                sky = rng.chance(0.8) ? Sky::Partly : Sky::Clear;
                break;
            }
        }

        double atten = 1.0;
        if (sky == Sky::Partly)
            atten = params.partlyCloudyFactor;
        else if (sky == Sky::Overcast)
            atten = params.overcastFactor;

        double noise =
            std::max(0.0, 1.0 + rng.normal(0.0, params.noiseSigma));
        double watts = params.ratedPowerW * envelope * atten * noise;
        trace.append(std::max(0.0, watts));
    }
    return trace;
}

SolarArray::SolarArray(SolarParams params, double duration_seconds,
                       double step_seconds, std::uint64_t seed)
    : SolarArray(params, std::make_shared<const TimeSeries>(
                             generateSolarTrace(params,
                                                duration_seconds,
                                                step_seconds, seed)))
{
}

SolarArray::SolarArray(SolarParams params,
                       std::shared_ptr<const TimeSeries> trace)
    : params_(params), trace_(std::move(trace))
{
    if (!trace_)
        fatal("SolarArray: null shared trace");
}

double
SolarArray::availablePowerW(double time_seconds) const
{
    return trace_->valueAt(time_seconds);
}

void
SolarArray::recordHarvest(double watts, double dt_seconds)
{
    harvestedWh_ += energyWh(watts, dt_seconds);
}

double
SolarArray::nextChangeTime(double time_seconds) const
{
    // The trace is sampled at the discretization step and valueAt()
    // interpolates between samples, so the output can move at every
    // sample boundary. With the step equal to the simulation tick
    // this keeps solar runs on the dense path — which is what the
    // cloud transients need anyway.
    double step = trace_->stepSeconds();
    auto idx = static_cast<std::uint64_t>(time_seconds / step);
    return static_cast<double>(idx + 1) * step;
}

double
SolarArray::totalGenerationWh() const
{
    return trace_->integralWattHours();
}

} // namespace heb
