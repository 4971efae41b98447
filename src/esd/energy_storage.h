/**
 * @file
 * Abstract interface for energy storage devices (ESDs).
 *
 * Batteries and super-capacitors expose the same power-level contract
 * to the rest of the system: ask for watts over a time step, get back
 * the watts the device could actually source/sink. All internal losses
 * (ohmic, coulombic) are the device's business; the caller reasons in
 * terminal power only.
 */

#pragma once

#include <cstddef>
#include <string>

namespace heb {

/** Smallest power (W) worth actually moving; a smaller request rests. */
constexpr double kMinMeaningfulPowerW = 1e-9;

/** Discharge capability (W) below which a device counts as depleted. */
constexpr double kDepletedPowerW = 1.0;

/** Cumulative terminal-energy counters kept by every ESD. */
struct EsdCounters
{
    /** Energy pushed into the device at its terminals (Wh). */
    double chargeEnergyWh = 0.0;
    /** Energy drawn from the device at its terminals (Wh). */
    double dischargeEnergyWh = 0.0;
    /** Energy lost internally (ohmic + coulombic), Wh. */
    double lossEnergyWh = 0.0;
    /** Total charge throughput on discharge (Ah). */
    double dischargeAh = 0.0;
    /** Total charge throughput on charge (Ah). */
    double chargeAh = 0.0;
    /** Number of charge->discharge direction changes (half cycles). */
    unsigned long directionChanges = 0;
};

/**
 * An energy storage device with power-level charge/discharge.
 *
 * Implementations must be deterministic: the same sequence of calls
 * produces the same state.
 */
class EnergyStorageDevice
{
  public:
    virtual ~EnergyStorageDevice() = default;

    /** Human-readable device name. */
    virtual const std::string &name() const = 0;

    /**
     * Draw up to @p watts from the device for @p dt_seconds.
     *
     * @return The terminal power actually delivered (<= watts); the
     *         internal state advances by dt_seconds either way.
     */
    virtual double discharge(double watts, double dt_seconds) = 0;

    /**
     * Push up to @p watts into the device for @p dt_seconds.
     *
     * @return The terminal power actually absorbed (<= watts).
     */
    virtual double charge(double watts, double dt_seconds) = 0;

    /** Let the device idle (self-discharge / recovery) for dt. */
    virtual void rest(double dt_seconds) = 0;

    /**
     * Advance through @p ticks idle steps of @p dt_seconds each —
     * the fast-forward engine's quiescent macro-tick. The contract
     * is bitwise: the final state must be exactly what @p ticks
     * successive rest(dt_seconds) calls would produce. Overrides may
     * shortcut (memoized decay factors, settled-state early-outs)
     * only when the shortcut reproduces the iterated floating-point
     * state to the last ulp.
     */
    virtual void advanceQuiescent(std::size_t ticks,
                                  double dt_seconds)
    {
        for (std::size_t i = 0; i < ticks; ++i)
            rest(dt_seconds);
    }

    /**
     * Energy (Wh) the device could still deliver right now given its
     * depth-of-discharge floor, ignoring rate limits.
     */
    virtual double usableEnergyWh() const = 0;

    /** Nominal (rated) energy capacity in Wh. */
    virtual double capacityWh() const = 0;

    /** State of charge in [0, 1] relative to nominal capacity. */
    virtual double soc() const = 0;

    /** Terminal voltage at the present state under @p load_watts. */
    virtual double terminalVoltage(double load_watts) const = 0;

    /**
     * Largest terminal power (W) the device can source for the next
     * @p dt_seconds without violating voltage / charge constraints.
     */
    virtual double maxDischargePowerW(double dt_seconds) const = 0;

    /** Largest terminal power (W) the device can sink for dt. */
    virtual double maxChargePowerW(double dt_seconds) const = 0;

    /** True when the device cannot deliver meaningful power now. */
    virtual bool depleted(double dt_seconds) const = 0;

    /** Lifetime fraction consumed so far, in [0, 1+]. */
    virtual double lifetimeFractionUsed() const = 0;

    /** Cumulative terminal counters. */
    virtual const EsdCounters &counters() const = 0;

    /** Restore the factory-fresh state (full charge, zero wear). */
    virtual void reset() = 0;

    /**
     * Force the state of charge to @p soc in [0, 1] without moving
     * energy through the terminals (profiling / test setup only;
     * counters and wear are untouched).
     */
    virtual void setSoc(double soc) = 0;

    /**
     * Apply a health derate from a hardware fault: multiply the
     * effective capacity by @p capacity_factor (<= 1) and the
     * effective series resistance by @p resistance_factor (>= 1).
     * Derates compound across calls and persist until reset().
     * Devices that do not model health ignore the call.
     */
    virtual void applyHealthDerate(double capacity_factor,
                                   double resistance_factor)
    {
        (void)capacity_factor;
        (void)resistance_factor;
    }
};

} // namespace heb
