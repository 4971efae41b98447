/**
 * @file
 * Ideal-capacitor-plus-ESR super-capacitor model.
 *
 * Stored energy is purely electrostatic, so the model has none of the
 * battery's kinetic limits: voltage declines linearly with charge
 * (paper Fig. 5), round-trip losses are only the small I^2 * ESR term
 * (90-95 %, paper Fig. 3), and there is no charge-current ceiling
 * beyond the bank's conservative absolute rating.
 *
 * All arithmetic lives in esd_kernel.h; this class holds the state
 * and calls those kernels on it.
 */

#pragma once

#include <string>

#include "esd/energy_storage.h"
#include "esd/esd_kernel.h"
#include "esd/sc_params.h"

namespace heb {

/**
 * Snapshot of a supercapacitor's complete mutable state, for
 * checkpoints.
 */
struct ScState
{
    double voltage = 0.0;
    double healthCap = 1.0;
    double healthRes = 1.0;
    int lastDirection = 0;
    EsdCounters counters;
};

/** A super-capacitor bank. */
class Supercapacitor : public EnergyStorageDevice
{
  public:
    /** Construct a fully-charged bank. */
    explicit Supercapacitor(ScParams params);

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
    const ScParams &params() const { return params_; }

    /** Present open-circuit bank voltage (V). */
    double voltage() const { return voltage_; }

    /** ESR including health growth from applyHealthDerate (ohm). */
    double effectiveEsrOhm() const
    {
        return params_.esrOhm * healthResistanceFactor_;
    }

    /** Capacitance including health fade (F). */
    double effectiveCapacitanceF() const
    {
        return params_.capacitanceF * healthCapacityFactor_;
    }

    /** Last flow direction: +1 discharging, -1 charging, 0 fresh. */
    int lastDirection() const { return lastDirection_; }

    /** Snapshot the complete mutable state (for checkpoints). */
    ScState state() const;

    /** Restore a state previously captured with state(). */
    void restoreState(const ScState &s);

  private:
    /** Mutable-state handle for the shared kernels. */
    esd_kernel::ScRef ref();

    /** Read-only state view for the shared kernels. */
    esd_kernel::ScView view() const;

    /**
     * Memoized self-discharge keep factor: simulations call with one
     * fixed tick length, so the exp is computed once per distinct
     * dt. Mutable cache only; never observable state.
     */
    const esd_kernel::ScStepUniforms &uniforms(double dt_seconds) const;

    ScParams params_;
    double voltage_;
    double healthCapacityFactor_ = 1.0;
    double healthResistanceFactor_ = 1.0;
    int lastDirection_ = 0;
    EsdCounters counters_;
    mutable esd_kernel::ScStepUniforms uni_;
};

} // namespace heb
