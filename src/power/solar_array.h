/**
 * @file
 * Synthetic solar generation model.
 *
 * Substitutes for the paper's rooftop PV installation (§7.4). The
 * model composes (1) a clear-sky diurnal envelope from solar
 * elevation and (2) a three-state Markov cloud process (clear /
 * partly cloudy / overcast) whose transients create the deep valleys
 * and steep ramps that make renewable-energy utilization (REU)
 * interesting. Generation is pre-sampled into a deterministic trace
 * at construction so that repeated queries are cheap and repeatable.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "power/power_source.h"
#include "util/time_series.h"

namespace heb {

/** Knobs of the synthetic PV model. */
struct SolarParams
{
    /** Nameplate array rating (W) at full irradiance. */
    double ratedPowerW = 400.0;

    /** Local sunrise hour (0-24). */
    double sunriseHour = 6.0;

    /** Local sunset hour (0-24). */
    double sunsetHour = 18.0;

    /** Mean attenuation while partly cloudy (fraction of clear sky). */
    double partlyCloudyFactor = 0.55;

    /** Mean attenuation while overcast. */
    double overcastFactor = 0.15;

    /** Per-minute probability of leaving the clear state. */
    double pLeaveClear = 0.02;

    /** Per-minute probability of leaving the partly-cloudy state. */
    double pLeavePartly = 0.10;

    /** Per-minute probability of leaving the overcast state. */
    double pLeaveOvercast = 0.04;

    /** Multiplicative high-frequency noise sigma. */
    double noiseSigma = 0.04;
};

/**
 * Generate @p duration_seconds of PV output at @p step_seconds. Pure
 * in (params, duration, step, seed): every call with the same inputs
 * produces a bit-identical trace, which is what lets SharedPlanCache
 * hand one immutable trace to every rack/sweep cell that shares the
 * solar configuration.
 */
TimeSeries generateSolarTrace(const SolarParams &params,
                              double duration_seconds,
                              double step_seconds,
                              std::uint64_t seed);

/** A solar array serving a pre-generated deterministic trace. */
class SolarArray : public PowerSource
{
  public:
    /**
     * Generate @p duration_seconds of output at @p step_seconds.
     *
     * @param params  Model knobs.
     * @param seed    RNG seed for the cloud process.
     */
    SolarArray(SolarParams params, double duration_seconds,
               double step_seconds, std::uint64_t seed);

    /**
     * Wrap an already-generated (typically cache-shared) trace.
     * @p trace must be non-null; harvested-energy accounting stays
     * per-instance, so racks sharing one trace do not interfere.
     */
    SolarArray(SolarParams params,
               std::shared_ptr<const TimeSeries> trace);

    const std::string &name() const override { return name_; }

    double availablePowerW(double time_seconds) const override;

    double nextChangeTime(double time_seconds) const override;

    /** Total energy the array generates over the trace (Wh). */
    double totalGenerationWh() const;

    /**
     * Meter a draw of @p watts for @p dt_seconds as harvested energy
     * (REU and spilled generation read the total).
     */
    void recordHarvest(double watts, double dt_seconds);

    /** Energy actually harvested by loads/buffers so far (Wh). */
    double harvestedWh() const { return harvestedWh_; }

    /**
     * Restore the harvest meter from a checkpoint; the trace itself
     * is pure in (params, duration, step, seed) and regenerated.
     */
    void restoreHarvestedWh(double wh) { harvestedWh_ = wh; }

    /** The underlying generation trace. */
    const TimeSeries &trace() const { return *trace_; }

    /** Knobs in use. */
    const SolarParams &params() const { return params_; }

  private:
    std::string name_ = "solar";
    SolarParams params_;
    std::shared_ptr<const TimeSeries> trace_;
    double harvestedWh_ = 0.0;
};

} // namespace heb
