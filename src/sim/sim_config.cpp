#include "sim/sim_config.h"

#include <cmath>

#include "util/logging.h"

namespace heb {

namespace {

/** fatal() unless @p v is finite. */
void
requireFinite(double v, const char *field)
{
    if (std::isnan(v))
        fatal("SimConfig: ", field, " is NaN");
    if (std::isinf(v))
        fatal("SimConfig: ", field, " must be finite (got ", v, ")");
}

/** fatal() unless @p v is a finite, positive number. */
void
requirePositive(double v, const char *field)
{
    requireFinite(v, field);
    if (v <= 0.0)
        fatal("SimConfig: ", field, " must be positive (got ", v,
              ")");
}

/** fatal() unless @p v is finite and non-negative. */
void
requireNonNegative(double v, const char *field)
{
    requireFinite(v, field);
    if (v < 0.0)
        fatal("SimConfig: ", field, " must be non-negative (got ",
              v, ")");
}

} // namespace

void
SimConfig::validate() const
{
    if (numServers == 0)
        fatal("SimConfig: numServers must be at least 1 server");
    requirePositive(tickSeconds, "tickSeconds");
    requirePositive(slotSeconds, "slotSeconds");
    requirePositive(durationSeconds, "durationSeconds");
    if (durationSeconds < slotSeconds)
        fatal("SimConfig: durationSeconds (", durationSeconds,
              ") shorter than one slot (", slotSeconds, ")");
    if (!solarPowered)
        requirePositive(budgetW, "budgetW");
    requireNonNegative(peakShavingTargetW, "peakShavingTargetW");
    requireNonNegative(sensorNoiseSigma, "sensorNoiseSigma");
    requireNonNegative(scEnergyWh, "scEnergyWh");
    requireNonNegative(baEnergyWh, "baEnergyWh");
    if (scDod <= 0.0 || scDod > 1.0 || std::isnan(scDod))
        fatal("SimConfig: scDod must be in (0, 1] (got ", scDod,
              ")");
    if (baDod <= 0.0 || baDod > 1.0 || std::isnan(baDod))
        fatal("SimConfig: baDod must be in (0, 1] (got ", baDod,
              ")");
    requirePositive(serverParams.peakPowerW,
                    "serverParams.peakPowerW");
    requireNonNegative(serverParams.idlePowerW,
                       "serverParams.idlePowerW");
    if (serverParams.idlePowerW > serverParams.peakPowerW)
        fatal("SimConfig: serverParams.idlePowerW (",
              serverParams.idlePowerW, ") exceeds peakPowerW (",
              serverParams.peakPowerW, ")");
    requirePositive(serverParams.highFreqGhz,
                    "serverParams.highFreqGhz");
    requirePositive(serverParams.lowFreqGhz,
                    "serverParams.lowFreqGhz");
    requireNonNegative(serverParams.bootTimeS,
                       "serverParams.bootTimeS");
    for (auto [start, duration] : outages) {
        requireNonNegative(start, "outage start");
        requirePositive(duration, "outage duration");
    }
}

} // namespace heb
