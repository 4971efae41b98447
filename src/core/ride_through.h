/**
 * @file
 * Ride-through estimation: how long can the hybrid bank carry a
 * given load right now?
 *
 * The "time remaining" gauge every UPS front panel shows, computed
 * for the heterogeneous bank by simulating the dispatch forward on
 * cloned state — the same question the Fig. 6 characterization asks,
 * exposed as an operator-facing primitive. The controller can use it
 * to decide *when* to start shedding instead of discovering the
 * cliff in real time.
 */

#pragma once

#include <functional>
#include <memory>

#include "esd/energy_storage.h"

namespace heb {

/** Knobs of the ride-through estimate. */
struct RideThroughParams
{
    /** Fraction of the load on the SC branch (plan R_lambda). */
    double rLambda = 1.0;

    /** Simulation tick (s). */
    double tickSeconds = 5.0;

    /** Estimation horizon cap (s). */
    double horizonSeconds = 8.0 * 3600.0;
};

/** Result of a ride-through estimate. */
struct RideThroughEstimate
{
    /**
     * Sustained seconds. When survivedHorizon is set this is the
     * horizon itself and the true ride-through is *at least* this —
     * the simulation stopped looking, the bank did not fail.
     */
    double seconds = 0.0;

    /**
     * True when the bank carried the load for the whole horizon;
     * false when it actually failed at @ref seconds (which may still
     * numerically equal the horizon for a failure on the last tick).
     */
    bool survivedHorizon = false;
};

/**
 * Estimate how long the pair could sustain @p load_w from the given
 * starting SoCs. Device state is reconstructed from factory-fresh
 * devices (the estimate must not mutate live banks), so callers pass
 * the *current* SoCs.
 *
 * @param sc_factory Fresh SC bank factory.
 * @param ba_factory Fresh battery bank factory.
 */
RideThroughEstimate
estimateRideThrough(
    const std::function<std::unique_ptr<EnergyStorageDevice>()>
        &sc_factory,
    const std::function<std::unique_ptr<EnergyStorageDevice>()>
        &ba_factory,
    double sc_soc, double ba_soc, double load_w,
    RideThroughParams params = {});

/**
 * Legacy scalar form of estimateRideThrough(): the sustained seconds
 * only, losing the survived-vs-measured-at-horizon distinction.
 */
double
estimateRideThroughSeconds(
    const std::function<std::unique_ptr<EnergyStorageDevice>()>
        &sc_factory,
    const std::function<std::unique_ptr<EnergyStorageDevice>()>
        &ba_factory,
    double sc_soc, double ba_soc, double load_w,
    RideThroughParams params = {});

} // namespace heb
