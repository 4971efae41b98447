/**
 * @file
 * Simulation configuration: the prototype rig in one struct.
 *
 * Defaults replicate the paper's scale-down prototype: six i7 nodes
 * (30/70 W), a 260 W utility budget, a hybrid bank at SC:BA = 3:7,
 * 10-minute control slots and 1-second IPDU sampling.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dc/cluster.h"
#include "fault/fault_plan.h"
#include "power/solar_array.h"
#include "power/topology.h"

namespace heb {

/** Full simulator configuration. */
struct SimConfig
{
    /** Number of servers. */
    std::size_t numServers = 6;

    /** Server power envelope. */
    ServerParams serverParams{};

    /** IPDU sample / simulation tick (s). */
    double tickSeconds = 1.0;

    /** Control-slot length (s). */
    double slotSeconds = 600.0;

    /**
     * Simulated duration (s). Two days by default: the Holt-Winters
     * predictor needs one full season (day) before its seasonal term
     * engages, mirroring a pilot day in the paper's deployment.
     */
    double durationSeconds = 48.0 * 3600.0;

    /** Utility budget (W); ignored when solar-powered. */
    double budgetW = 260.0;

    /**
     * Scheduled utility outages as (start, duration) seconds; the
     * buffers must ride through (the classic UPS role).
     */
    std::vector<std::pair<double, double>> outages;

    /**
     * Demand-charge management (paper §7.6): when positive, the
     * controller tries to keep the utility draw at or below this
     * soft cap by discharging buffers, lowering the billed monthly
     * peak. Economic only — if the buffers cannot cover the excess,
     * the draw rises to the real budget rather than shedding
     * servers.
     */
    double peakShavingTargetW = 0.0;

    /** Power the rig from the synthetic solar array instead. */
    bool solarPowered = false;

    /** Solar model knobs (when solarPowered). */
    SolarParams solarParams{};

    /** RNG seed (solar clouds etc.). */
    std::uint64_t seed = 42;

    /**
     * Multiplicative sigma of the controller's buffer telemetry
     * noise (0 = perfect sensors). Real SoC estimators are not
     * exact; HEB must be robust to that.
     */
    double sensorNoiseSigma = 0.0;

    /** Installed SC usable energy (Wh). Total bank ~ 96 Wh at 3:7. */
    double scEnergyWh = 28.8;

    /** Installed battery nominal energy (Wh). */
    double baEnergyWh = 67.2;

    /** SC usable-window throttle (capacity-growth sweeps). */
    double scDod = 1.0;

    /** Battery depth-of-discharge limit. */
    double baDod = 0.8;

    /**
     * Battery aging (capacity fade + resistance growth). The paper's
     * §5.3 motivates the dynamic PAT updates with exactly this:
     * aged buffers handle mismatches worse, so the table must track
     * them.
     */
    bool batteryAging = false;

    /** Delivery architecture. */
    TopologyKind topology = TopologyKind::HebHybrid;

    /** HEB granularity. */
    HebDeployment deployment = HebDeployment::RackLevel;

    /**
     * Performance-scaling alternative (paper §1): when enabled, the
     * controller first drops every server to the low DVFS level
     * during a mismatch — capping power at the cost of performance —
     * and only taps buffers for what remains. SimResult reports the
     * accumulated slowdown as perfDegradationServerSeconds.
     */
    bool dvfsCapping = false;

    /**
     * Record the per-tick demand/supply/unserved series in results.
     * Fleet-scale runs that only consume aggregate totals disable
     * this so memory stays flat in racks x ticks; the headline
     * metrics, ledger and per-slot SoC series are unaffected.
     */
    bool recordSeries = true;

    // --- Fault injection / graceful degradation -------------------

    /**
     * Generate and apply a seeded FaultPlan over the run: hardware
     * derates, converter trips, ATS gaps and sensor faults (see
     * fault/fault_plan.h). Off by default — the headline experiments
     * model healthy hardware.
     */
    bool faultInjection = false;

    /** Stochastic fault-plan knobs (rates per simulated day). */
    fault::FaultPlanParams faultPlan{};

    /**
     * Seed of the fault plan and telemetry jitter, deliberately
     * separate from `seed` so Monte-Carlo sweeps can vary the fault
     * scenario while holding the workload fixed.
     */
    std::uint64_t faultSeed = 1;

    /**
     * Install the graceful-degradation policy (core/degradation.h):
     * the controller vets every slot plan against a ride-through
     * estimate of the *sensed* bank and falls back — rebalance,
     * single branch, proportional shed — when it cannot ride through.
     */
    bool degradationPolicy = false;

    /**
     * fatal() with a diagnostic naming the offending field when the
     * configuration is malformed: NaN or non-positive durations and
     * strides, negative budgets or capacities, zero servers, DoD
     * outside (0, 1], malformed outage windows. Called by the
     * Simulator and FleetSimulator constructors and by every CLI
     * after flag parsing, so a bad flag fails fast with a field
     * name instead of corrupting a long run.
     */
    void validate() const;

    /** Total installed buffer energy (Wh). */
    double
    totalBufferWh() const
    {
        return scEnergyWh + baEnergyWh;
    }

    /**
     * Re-split the same total between SC and battery: ratio m:n
     * (paper Fig. 13; m + n arbitrary units).
     */
    void
    setCapacityRatio(double sc_parts, double ba_parts)
    {
        double total = totalBufferWh();
        double denom = sc_parts + ba_parts;
        scEnergyWh = total * sc_parts / denom;
        baEnergyWh = total * ba_parts / denom;
    }

    /**
     * Resize the rack to @p servers and scale the utility budget and
     * both banks with it: the defaults are the paper's six-server rig
     * (260 W, 96 Wh), and a larger rack is that rig per server. The
     * one owner of this rule; heb_fleet, the config loader and the
     * tests all call it. Returns the factor, servers / old numServers.
     */
    double
    scaleServers(std::size_t servers)
    {
        double scale = static_cast<double>(servers) /
                       static_cast<double>(numServers);
        numServers = servers;
        budgetW *= scale;
        scEnergyWh *= scale;
        baEnergyWh *= scale;
        return scale;
    }
};

} // namespace heb
