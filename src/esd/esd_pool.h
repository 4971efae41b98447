/**
 * @file
 * A parallel pool of energy storage devices.
 *
 * The HEB architecture groups "small and large" batteries and SC
 * modules into pools (Fig. 11). A pool presents the combined bank as
 * one EnergyStorageDevice: power requests are split across members in
 * proportion to what each can source/sink, which is both physical
 * (parallel strings share current by impedance) and optimal for a
 * single step.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "esd/energy_storage.h"
#include "obs/metrics.h"

namespace heb {

/** A bank of parallel ESDs exposed as a single device. */
class EsdPool : public EnergyStorageDevice
{
  public:
    /** Construct an empty pool with a label. */
    explicit EsdPool(std::string name);

    /** Add a device to the pool (pool takes ownership). */
    void add(std::unique_ptr<EnergyStorageDevice> device);

    /** Number of member devices. */
    std::size_t deviceCount() const { return devices_.size(); }

    /** Access member @p index (for tests and detailed logging). */
    EnergyStorageDevice &device(std::size_t index);
    const EnergyStorageDevice &device(std::size_t index) const;

    const std::string &name() const override { return name_; }

    double discharge(double watts, double dt_seconds) override;
    double charge(double watts, double dt_seconds) override;
    void rest(double dt_seconds) override;
    void advanceQuiescent(std::size_t ticks,
                          double dt_seconds) override;

    double usableEnergyWh() const override;
    double capacityWh() const override;
    double soc() const override;
    double terminalVoltage(double load_watts) const override;
    double maxDischargePowerW(double dt_seconds) const override;
    double maxChargePowerW(double dt_seconds) const override;
    bool depleted(double dt_seconds) const override;
    double lifetimeFractionUsed() const override;
    const EsdCounters &counters() const override;
    void reset() override;
    void setSoc(double soc) override;

    /** Fan a health derate out to every member device. */
    void applyHealthDerate(double capacity_factor,
                           double resistance_factor) override;

  private:
    std::string name_;
    std::vector<std::unique_ptr<EnergyStorageDevice>> devices_;
    mutable EsdCounters aggregate_;

    // Telemetry handles, registered once per pool name; updates are
    // O(1) and gated on the global telemetry level.
    obs::Counter &dischargeWhMetric_;
    obs::Counter &chargeWhMetric_;
    obs::Counter &starvedTicksMetric_;
};

} // namespace heb
