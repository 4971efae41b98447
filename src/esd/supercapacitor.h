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
 * Results are pinned bit for bit (tests/esd/trajectory_digest_test.cpp
 * and the `%.17g` result digests), so reassociating an expression or
 * reordering the updates of a step is a behaviour change, not a
 * refactor.
 */

#pragma once

#include <string>

#include "esd/energy_storage.h"
#include "esd/sc_params.h"

namespace heb {

/**
 * A supercapacitor's complete mutable state. The device keeps it as
 * one member, so checkpoints save and restore it as a plain copy.
 */
struct ScState
{
    double voltage = 0.0;   //!< open-circuit bank voltage (V)
    double healthCap = 1.0; //!< compound capacitance derate
    double healthRes = 1.0; //!< compound ESR growth
    int lastDirection = 0;  //!< +1 discharging, -1 charging, 0 fresh
    EsdCounters counters;
};

/** A super-capacitor bank. */
class Supercapacitor final : public EnergyStorageDevice
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
    const EsdCounters &counters() const override { return s_.counters; }
    void reset() override;
    void setSoc(double soc) override;
    void applyHealthDerate(double capacity_factor,
                           double resistance_factor) override;

    /** Parameter set in use. */
    const ScParams &params() const { return params_; }

    /** Present open-circuit bank voltage (V). */
    double voltage() const { return s_.voltage; }

    /** ESR including health growth from applyHealthDerate (ohm). */
    double effectiveEsrOhm() const
    {
        return params_.esrOhm * s_.healthRes;
    }

    /** Capacitance including health fade (F). */
    double effectiveCapacitanceF() const
    {
        return params_.capacitanceF * s_.healthCap;
    }

    /** Last flow direction: +1 discharging, -1 charging, 0 fresh. */
    int lastDirection() const { return s_.lastDirection; }

    /** Snapshot the complete mutable state (for checkpoints). */
    ScState state() const { return s_; }

    /** Restore a state previously captured with state(). */
    void restoreState(const ScState &s) { s_ = s; }

  private:
    /**
     * Self-discharge keep factor e^{-λ·dt}, memoized on the last dt:
     * simulations call with one fixed tick length, so the exp is
     * computed once. Mutable cache only; never observable state.
     */
    double restKeep(double dt_seconds) const;

    ScParams params_;
    ScState s_;
    mutable double keepDtSeconds_ = -1.0;
    mutable double keep_ = 1.0;
};

} // namespace heb
