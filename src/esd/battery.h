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
 * Results are pinned bit for bit (tests/esd/trajectory_digest_test.cpp
 * and the `%.17g` result digests), so reassociating an expression or
 * reordering the updates of a step is a behaviour change, not a
 * refactor.
 */

#pragma once

#include <limits>
#include <string>

#include "esd/battery_params.h"
#include "esd/energy_storage.h"

namespace heb {

/**
 * A battery's complete mutable state. The device keeps it as one
 * member, so checkpoints save and restore it as a plain copy.
 */
struct BatteryState
{
    double y1 = 0.0;         //!< available charge (Ah)
    double y2 = 0.0;         //!< bound charge (Ah)
    double healthCap = 1.0;  //!< compound capacity derate
    double healthRes = 1.0;  //!< compound resistance growth
    double weightedAh = 0.0; //!< lifetime-weighted discharge (Ah)
    double tempC = 0.0;      //!< cell temperature (C)
    int lastDirection = 0;   //!< +1 discharging, -1 charging, 0 fresh
    EsdCounters counters;
};

/** A lead-acid battery simulated with KiBaM dynamics. */
class Battery final : public EnergyStorageDevice
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
    const EsdCounters &counters() const override { return s_.counters; }
    void reset() override;
    void setSoc(double soc) override;
    void applyHealthDerate(double capacity_factor,
                           double resistance_factor) override;

    /** Parameter set in use. */
    const BatteryParams &params() const { return params_; }

    /** Charge in the KiBaM available well (Ah). */
    double availableChargeAh() const { return s_.y1; }

    /** Charge in the KiBaM bound well (Ah). */
    double boundChargeAh() const { return s_.y2; }

    /** Open-circuit voltage at the present state of charge. */
    double openCircuitVoltage() const;

    /** Effective internal resistance at the present SoC (ohm). */
    double effectiveResistance() const;

    /** Lifetime-weighted discharge throughput so far (Ah). */
    double weightedThroughputAh() const { return s_.weightedAh; }

    /**
     * Effective capacity (Ah) after aging fade and health derates;
     * equals the rated capacity when aging is disabled and the
     * battery is fresh and healthy.
     */
    double effectiveCapacityAh() const;

    /** Compound capacity derate from applyHealthDerate (1 = healthy). */
    double healthCapacityFactor() const { return s_.healthCap; }

    /** Compound resistance growth from applyHealthDerate (1 = healthy). */
    double healthResistanceFactor() const { return s_.healthRes; }

    /** Cell temperature (C); ambient when the thermal model is off. */
    double temperatureC() const { return s_.tempC; }

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
    int lastDirection() const { return s_.lastDirection; }

    /** Snapshot the complete mutable state (for checkpoints). */
    BatteryState state() const { return s_; }

    /** Restore a state previously captured with state(). */
    void
    restoreState(const BatteryState &s)
    {
        s_ = s;
        ceilings_ = Ceilings{};
    }

  private:
    /**
     * Per-dt terms of a step: the KiBaM exponentials, the thermal
     * alpha and the self-discharge keep factor.
     */
    struct StepTerms
    {
        double dtSeconds = -1.0;   //!< step the terms were computed for
        double tHours = 0.0;       //!< dt in hours
        double kt = 0.0;           //!< k·t
        double ekt = 1.0;          //!< e^{-k·t}
        double oneMinusEkt = 0.0;  //!< 1 - e^{-k·t} (expm1, stable)
        double thermalAlpha = 0.0; //!< 1 - e^{-dt/tau} (0 if disabled)
        double restKeep = 1.0;     //!< max(0, 1 - selfDis·t)
    };

    /**
     * The step terms for @p dt_seconds, memoized on the last step
     * length. Nearly every simulation calls the battery with one
     * fixed tick length, so the exp/expm1 pair is computed once. The
     * cache makes the object non-thread-safe for *concurrent* use,
     * which the parallel sweep engine already guarantees: a device
     * belongs to exactly one simulation task (see DESIGN.md §8).
     */
    const StepTerms &terms(double dt_seconds) const;

    /**
     * The last maxChargePowerW / maxDischargePowerW results, each
     * keyed on its step length (NaN: none). The ceilings are pure
     * functions of (params_, s_, dt), and dispatch planning, the
     * pool's split and the device's own clamp ask for the same one in
     * turn, so every write to s_ clears them: stepWells, stepThermal,
     * reset, setSoc, applyHealthDerate and restoreState. Same thread
     * contract as the StepTerms memo.
     */
    struct Ceilings
    {
        double chargeDt = std::numeric_limits<double>::quiet_NaN();
        double chargeW = 0.0;
        double dischargeDt = std::numeric_limits<double>::quiet_NaN();
        double dischargeW = 0.0;
    };

    double kibamMaxDischargeCurrent(const StepTerms &u) const;
    double kibamMaxChargeCurrent(const StepTerms &u) const;
    double maxDischargePowerW(const StepTerms &u) const;
    double maxChargePowerW(const StepTerms &u) const;

    /** Current (A) bounded by the cutoff voltage and the power peak. */
    double voltageLimitedCurrent() const;

    /** Lifetime wear per Ah drawn at @p current_a from this SoC. */
    double wearWeight(double current_a) const;

    /** Advance both wells under constant current for one step. */
    void stepWells(const StepTerms &u, double current_a);

    /** First-order thermal update given this step's loss power. */
    void stepThermal(const StepTerms &u, double loss_w);

    /** One idle step: recovery, cooling and self-discharge. */
    void restStep(const StepTerms &u);

    BatteryParams params_;
    BatteryState s_;
    mutable StepTerms terms_;
    mutable Ceilings ceilings_;
};

} // namespace heb
