#include "esd/peukert_battery.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/units.h"

namespace heb {

PeukertBattery::PeukertBattery(BatteryParams params, double exponent)
    : params_(std::move(params)), exponent_(exponent),
      chargeAh_(params_.capacityAh)
{
    if (exponent_ < 1.0)
        fatal("Peukert exponent must be >= 1, got ", exponent_);
    params_.name += "-peukert";
    refCurrentPowTerm_ =
        std::pow(referenceCurrent(), exponent_ - 1.0);
}

void
PeukertBattery::reset()
{
    chargeAh_ = params_.capacityAh;
    weightedAh_ = 0.0;
    lastDirection_ = 0;
    counters_ = EsdCounters{};
}

double
PeukertBattery::referenceCurrent() const
{
    return params_.capacityAh / 20.0;
}

void
PeukertBattery::setSoc(double soc)
{
    if (soc < 0.0 || soc > 1.0)
        fatal("PeukertBattery::setSoc out of range: ", soc);
    chargeAh_ = soc * params_.capacityAh;
}

double
PeukertBattery::soc() const
{
    return chargeAh_ / params_.capacityAh;
}

double
PeukertBattery::openCircuitVoltage() const
{
    double s = std::clamp(soc(), 0.0, 1.0);
    return params_.vEmpty + (params_.vFull - params_.vEmpty) * s;
}

double
PeukertBattery::effectiveResistance() const
{
    double depth = 1.0 - std::clamp(soc(), 0.0, 1.0);
    return params_.internalResistanceOhm *
           (1.0 + params_.resistanceGrowthAtLowSoc * depth * depth);
}

double
PeukertBattery::usableEnergyWh() const
{
    double q_floor = (1.0 - params_.dodLimit) * params_.capacityAh;
    return std::max(0.0, chargeAh_ - q_floor) * params_.nominalVoltage;
}

double
PeukertBattery::dischargeCurrentFor(double watts) const
{
    double r = effectiveResistance();
    double ocv = openCircuitVoltage();
    double disc = ocv * ocv - 4.0 * r * watts;
    if (disc < 0.0)
        return -1.0;
    return (ocv - std::sqrt(disc)) / (2.0 * r);
}

double
PeukertBattery::terminalVoltage(double load_watts) const
{
    if (load_watts <= 0.0)
        return openCircuitVoltage();
    double i = dischargeCurrentFor(load_watts);
    if (i < 0.0)
        i = openCircuitVoltage() / (2.0 * effectiveResistance());
    return openCircuitVoltage() - i * effectiveResistance();
}

double
PeukertBattery::maxDischargePowerW(double dt_seconds) const
{
    double r = effectiveResistance();
    double ocv = openCircuitVoltage();
    double v_limit = std::max(0.0, (ocv - params_.vCutoff) / r);
    double q_floor = (1.0 - params_.dodLimit) * params_.capacityAh;
    double avail_ah = std::max(0.0, chargeAh_ - q_floor);
    double t = secondsToHours(dt_seconds);
    // Invert the Peukert drain: consumed = i*(i/iref)^(p-1)*t <= avail.
    double i_energy = params_.maxDischargeCRate * params_.capacityAh;
    if (t > 0.0) {
        i_energy = std::pow(avail_ah / t * refCurrentPowTerm_,
                            1.0 / exponent_);
    }
    double i = std::min({v_limit, ocv / (2.0 * r),
                         params_.maxDischargeCRate * params_.capacityAh,
                         i_energy});
    if (i <= 0.0)
        return 0.0;
    return (ocv - i * r) * i;
}

double
PeukertBattery::maxChargePowerW(double dt_seconds) const
{
    double t = secondsToHours(dt_seconds);
    double eff = params_.coulombicEfficiency;
    double headroom_ah = std::max(0.0, params_.capacityAh - chargeAh_);
    double headroom_a = t > 0.0 ? headroom_ah / (t * eff) : 0.0;
    double r = effectiveResistance();
    double ocv = openCircuitVoltage();
    double v_limit_a = std::max(0.0, (params_.vChargeMax - ocv) / r);
    double i = std::min({params_.maxChargeCRate * params_.capacityAh,
                         headroom_a, v_limit_a});
    if (i <= 0.0)
        return 0.0;
    return (ocv + i * r) * i;
}

bool
PeukertBattery::depleted(double dt_seconds) const
{
    return maxDischargePowerW(dt_seconds) < kDepletedPowerW;
}

double
PeukertBattery::lifetimeFractionUsed() const
{
    return weightedAh_ / params_.ratedThroughputAh();
}

double
PeukertBattery::discharge(double watts, double dt_seconds)
{
    if (watts <= kMinMeaningfulPowerW || dt_seconds <= 0.0)
        return 0.0;
    double p = std::min(watts, maxDischargePowerW(dt_seconds));
    if (p <= kMinMeaningfulPowerW)
        return 0.0;
    double i = dischargeCurrentFor(p);
    if (i < 0.0)
        return 0.0;

    double r = effectiveResistance();
    double dt_h = secondsToHours(dt_seconds);
    double iref = referenceCurrent();
    // Peukert drain: effective consumption grows with (i/iref)^(p-1).
    double drained =
        i * std::pow(std::max(i / iref, 1e-12), exponent_ - 1.0) * dt_h;
    chargeAh_ = std::max(0.0, chargeAh_ - drained);

    counters_.dischargeEnergyWh += p * dt_h;
    counters_.lossEnergyWh += i * i * r * dt_h;
    // The Peukert over-drain is charge permanently lost to the load:
    // account it as loss at nominal voltage.
    counters_.lossEnergyWh +=
        std::max(0.0, drained - i * dt_h) * params_.nominalVoltage;
    counters_.dischargeAh += i * dt_h;
    weightedAh_ += i * dt_h;
    if (lastDirection_ == -1)
        ++counters_.directionChanges;
    lastDirection_ = 1;
    return p;
}

double
PeukertBattery::charge(double watts, double dt_seconds)
{
    if (watts <= kMinMeaningfulPowerW || dt_seconds <= 0.0)
        return 0.0;
    double p = std::min(watts, maxChargePowerW(dt_seconds));
    if (p <= kMinMeaningfulPowerW)
        return 0.0;
    double r = effectiveResistance();
    double ocv = openCircuitVoltage();
    double i = (-ocv + std::sqrt(ocv * ocv + 4.0 * r * p)) / (2.0 * r);
    double absorbed = (ocv + i * r) * i;
    double eff = params_.coulombicEfficiency;
    double dt_h = secondsToHours(dt_seconds);
    chargeAh_ = std::min(params_.capacityAh, chargeAh_ + eff * i * dt_h);

    counters_.chargeEnergyWh += absorbed * dt_h;
    counters_.lossEnergyWh += (i * i * r + (1.0 - eff) * ocv * i) * dt_h;
    counters_.chargeAh += i * dt_h;
    if (lastDirection_ == 1)
        ++counters_.directionChanges;
    lastDirection_ = -1;
    return absorbed;
}

void
PeukertBattery::rest(double dt_seconds)
{
    if (dt_seconds <= 0.0)
        return;
    double keep =
        1.0 - params_.selfDischargePerHour * secondsToHours(dt_seconds);
    chargeAh_ *= std::max(0.0, keep);
}

} // namespace heb
