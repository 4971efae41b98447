/**
 * @file
 * Kinetic-battery-model (KiBaM) lead-acid battery.
 *
 * The KiBaM two-well formulation (Manwell & McGowan) captures the two
 * battery phenomena the HEB paper's characterization leans on:
 *
 *  - the *rate-capacity* (Peukert) effect: at high discharge current
 *    the available well drains before the bound well can refill it,
 *    so usable capacity shrinks;
 *  - the *recovery* effect: during rest, bound charge migrates back
 *    into the available well and previously "lost" energy returns.
 *
 * Terminal behaviour adds an OCV(SoC) + internal-resistance model so
 * that heavy loads sag the terminal voltage (paper Fig. 5) and ohmic
 * plus coulombic losses produce the <80 % round-trip efficiency the
 * paper measures (Fig. 3).
 *
 * All arithmetic lives in esd_kernel.h; this class holds the state
 * and calls those kernels on it.
 */

#pragma once

#include <string>

#include "esd/battery_params.h"
#include "esd/energy_storage.h"
#include "esd/esd_kernel.h"

namespace heb {

/**
 * Snapshot of a battery's complete mutable state. Checkpoints save
 * and restore a device through it without exposing the members
 * piecemeal.
 */
struct BatteryState
{
    double y1 = 0.0; //!< available charge (Ah)
    double y2 = 0.0; //!< bound charge (Ah)
    double healthCap = 1.0;
    double healthRes = 1.0;
    double weightedAh = 0.0;
    double tempC = 0.0;
    int lastDirection = 0;
    EsdCounters counters;
};

/** A lead-acid battery simulated with KiBaM dynamics. */
class Battery : public EnergyStorageDevice
{
  public:
    /** Construct a fully-charged battery. */
    explicit Battery(BatteryParams params);

    const std::string &name() const override { return params_.name; }

    double discharge(double watts, double dt_seconds) override;
    double charge(double watts, double dt_seconds) override;
    void rest(double dt_seconds) override;
    void advanceQuiescent(std::size_t ticks,
                          double dt_seconds) override;

    double usableEnergyWh() const override;
    double capacityWh() const override { return params_.capacityWh(); }
    double soc() const override;
    double terminalVoltage(double load_watts) const override;
    double maxDischargePowerW(double dt_seconds) const override;
    double maxChargePowerW(double dt_seconds) const override;
    bool depleted(double dt_seconds) const override;
    double lifetimeFractionUsed() const override;
    const EsdCounters &counters() const override { return counters_; }
    void reset() override;
    void setSoc(double soc) override;
    void applyHealthDerate(double capacity_factor,
                           double resistance_factor) override;

    /** Parameter set in use. */
    const BatteryParams &params() const { return params_; }

    /** Charge in the KiBaM available well (Ah). */
    double availableChargeAh() const { return y1_; }

    /** Charge in the KiBaM bound well (Ah). */
    double boundChargeAh() const { return y2_; }

    /** Open-circuit voltage at the present state of charge. */
    double openCircuitVoltage() const;

    /** Effective internal resistance at the present SoC (ohm). */
    double effectiveResistance() const;

    /** Lifetime-weighted discharge throughput so far (Ah). */
    double weightedThroughputAh() const { return weightedAh_; }

    /**
     * Effective capacity (Ah) after aging fade and health derates;
     * equals the rated capacity when aging is disabled and the
     * battery is fresh and healthy.
     */
    double effectiveCapacityAh() const;

    /** Compound capacity derate from applyHealthDerate (1 = healthy). */
    double healthCapacityFactor() const { return healthCapacityFactor_; }

    /** Compound resistance growth from applyHealthDerate (1 = healthy). */
    double healthResistanceFactor() const
    {
        return healthResistanceFactor_;
    }

    /** Cell temperature (C); ambient when the thermal model is off. */
    double temperatureC() const { return tempC_; }

    /**
     * Thermal charge-derating factor in [0, 1]: 1 below the derate
     * knee, 0 at the cutoff temperature.
     */
    double thermalChargeDerate() const;

    /**
     * Largest sustained discharge current (A) over the next
     * @p dt_seconds permitted by the KiBaM available well.
     */
    double kibamMaxDischargeCurrent(double dt_seconds) const;

    /**
     * Largest sustained charge current (A) over the next dt before
     * the available well hits its ceiling.
     */
    double kibamMaxChargeCurrent(double dt_seconds) const;

    /** Last flow direction: +1 discharging, -1 charging, 0 fresh. */
    int lastDirection() const { return lastDirection_; }

    /** Snapshot the complete mutable state (for checkpoints). */
    BatteryState state() const;

    /** Restore a state previously captured with state(). */
    void restoreState(const BatteryState &s);

  private:
    /** Mutable-state handle for the shared kernels. */
    esd_kernel::BatteryRef ref();

    /** Read-only state view for the shared kernels. */
    esd_kernel::BatteryView view() const;

    /**
     * Per-(params, dt) uniform terms (KiBaM exponentials, thermal
     * alpha, self-discharge keep), memoized on the last step length.
     * Nearly every simulation calls the battery with one fixed tick
     * length, so the exp/expm1 pair is computed once. The cache makes
     * the object non-thread-safe for *concurrent* use, which the
     * parallel sweep engine already guarantees: a device belongs to
     * exactly one simulation task (see DESIGN.md §8).
     */
    const esd_kernel::BatteryStepUniforms &
    uniforms(double dt_seconds) const;

    BatteryParams params_;
    double y1_; //!< available charge (Ah)
    double y2_; //!< bound charge (Ah)
    double healthCapacityFactor_ = 1.0;
    double healthResistanceFactor_ = 1.0;
    double weightedAh_ = 0.0;
    double tempC_;
    int lastDirection_ = 0; //!< +1 discharging, -1 charging, 0 fresh
    EsdCounters counters_;
    mutable esd_kernel::BatteryStepUniforms uni_;
};

} // namespace heb
