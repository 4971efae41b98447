#include "esd/supercapacitor.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/units.h"

namespace heb {

namespace {

/** Integration sub-step (seconds) for the voltage dynamics. */
constexpr double kScSubStepSeconds = 1.0;

} // namespace

Supercapacitor::Supercapacitor(ScParams params) : params_(std::move(params))
{
    if (params_.capacitanceF <= 0.0)
        fatal("Supercapacitor capacitance must be positive");
    if (params_.vMin < 0.0 || params_.vMin >= params_.vMax)
        fatal("Supercapacitor voltage window invalid: [", params_.vMin,
              ", ", params_.vMax, "]");
    if (params_.esrOhm <= 0.0)
        fatal("Supercapacitor ESR must be positive");
    reset();
}

double
Supercapacitor::restKeep(double dt_seconds) const
{
    if (dt_seconds != keepDtSeconds_) {
        keepDtSeconds_ = dt_seconds;
        keep_ = std::exp(-params_.selfDischargePerHour *
                         secondsToHours(dt_seconds));
    }
    return keep_;
}

void
Supercapacitor::reset()
{
    s_ = ScState{};
    s_.voltage = params_.vMax;
}

void
Supercapacitor::applyHealthDerate(double capacity_factor,
                                  double resistance_factor)
{
    if (capacity_factor <= 0.0 || capacity_factor > 1.0)
        fatal("Supercapacitor health capacity factor must be in "
              "(0,1], got ",
              capacity_factor);
    if (resistance_factor < 1.0)
        fatal("Supercapacitor health resistance factor must be >= 1, "
              "got ",
              resistance_factor);
    s_.healthCap *= capacity_factor;
    s_.healthRes *= resistance_factor;
}

void
Supercapacitor::setSoc(double soc)
{
    if (soc < 0.0 || soc > 1.0)
        fatal("Supercapacitor::setSoc out of range: ", soc);
    double v2 = params_.vMin * params_.vMin +
                soc * (params_.vMax * params_.vMax -
                       params_.vMin * params_.vMin);
    s_.voltage = std::sqrt(v2);
}

double
Supercapacitor::soc() const
{
    double v = s_.voltage;
    double num = v * v - params_.vMin * params_.vMin;
    double den = params_.vMax * params_.vMax - params_.vMin * params_.vMin;
    return std::clamp(num / den, 0.0, 1.0);
}

double
Supercapacitor::usableEnergyWh() const
{
    double v2 = std::max(
        s_.voltage * s_.voltage - params_.vMin * params_.vMin, 0.0);
    return 0.5 * effectiveCapacitanceF() * v2 / kSecondsPerHour;
}

double
Supercapacitor::terminalVoltage(double load_watts) const
{
    double v = s_.voltage;
    if (load_watts <= 0.0)
        return v;
    double esr = effectiveEsrOhm();
    double disc = v * v - 4.0 * esr * load_watts;
    // A load past the power peak draws the peak current v/(2·ESR).
    double i = disc < 0.0 ? -1.0 : (v - std::sqrt(disc)) / (2.0 * esr);
    if (i < 0.0)
        i = v / (2.0 * esr);
    return v - i * esr;
}

double
Supercapacitor::maxDischargePowerW(double dt_seconds) const
{
    double v = s_.voltage;
    if (v <= params_.vMin)
        return 0.0;
    double esr = effectiveEsrOhm();
    // Current bound from the energy left before hitting the floor,
    // spread across the requested horizon.
    double energy_bound_a =
        dt_seconds > 0.0
            ? (v - params_.vMin) * effectiveCapacitanceF() / dt_seconds
            : params_.maxCurrentA;
    // Never operate past the power peak of the ESR divider.
    double peak_a = v / (2.0 * esr);
    double i = std::min({params_.maxCurrentA, energy_bound_a, peak_a});
    return i <= 0.0 ? 0.0 : (v - i * esr) * i;
}

double
Supercapacitor::maxChargePowerW(double dt_seconds) const
{
    double v = s_.voltage;
    if (v >= params_.vMax)
        return 0.0;
    double headroom_a =
        dt_seconds > 0.0
            ? (params_.vMax - v) * effectiveCapacitanceF() / dt_seconds
            : params_.maxCurrentA;
    double i = std::min(params_.maxCurrentA, headroom_a);
    return i <= 0.0 ? 0.0 : (v + i * effectiveEsrOhm()) * i;
}

bool
Supercapacitor::depleted(double dt_seconds) const
{
    return maxDischargePowerW(dt_seconds) < kDepletedPowerW;
}

double
Supercapacitor::lifetimeFractionUsed() const
{
    double cycles = s_.counters.dischargeAh / params_.fullCycleAh();
    return cycles / params_.ratedCycleLife;
}

double
Supercapacitor::discharge(double watts, double dt_seconds)
{
    if (dt_seconds <= 0.0)
        return 0.0;
    if (watts <= kMinMeaningfulPowerW) {
        s_.voltage *= restKeep(dt_seconds);
        return 0.0;
    }
    double esr = effectiveEsrOhm();
    double capf = effectiveCapacitanceF();
    double delivered_wh = 0.0;
    bool moved = false;
    for (double remaining = dt_seconds; remaining > 0.0;) {
        double step = std::min(remaining, kScSubStepSeconds);
        remaining -= step;
        double v = s_.voltage;
        double disc = v * v - 4.0 * esr * watts;
        // Past the power peak (disc < 0) the sqrt term is +0.0 and
        // the current is the peak current v/(2·ESR).
        double i_load = (v - std::sqrt(std::max(disc, 0.0))) / (2.0 * esr);
        double floor_a = (v - params_.vMin) * capf / step;
        double i = std::min({i_load, params_.maxCurrentA, floor_a});
        // Charge that cannot move now cannot move in a later
        // sub-step either: nothing below changes without it.
        if (!(v > params_.vMin && i > 0.0))
            break;
        double dt_h = secondsToHours(step);
        delivered_wh += (v - i * esr) * i * dt_h;
        s_.counters.lossEnergyWh += i * i * esr * dt_h;
        s_.counters.dischargeAh += i * dt_h;
        s_.voltage -= i * step / capf;
        moved = true;
    }
    s_.counters.dischargeEnergyWh += delivered_wh;
    if (moved) {
        if (s_.lastDirection == -1)
            ++s_.counters.directionChanges;
        s_.lastDirection = 1;
    }
    // Report the average power actually delivered over the step.
    return delivered_wh / secondsToHours(dt_seconds);
}

double
Supercapacitor::charge(double watts, double dt_seconds)
{
    if (dt_seconds <= 0.0)
        return 0.0;
    if (watts <= kMinMeaningfulPowerW) {
        s_.voltage *= restKeep(dt_seconds);
        return 0.0;
    }
    double esr = effectiveEsrOhm();
    double capf = effectiveCapacitanceF();
    double absorbed_wh = 0.0;
    bool moved = false;
    for (double remaining = dt_seconds; remaining > 0.0;) {
        double step = std::min(remaining, kScSubStepSeconds);
        remaining -= step;
        double v = s_.voltage;
        double i_load =
            (-v + std::sqrt(v * v + 4.0 * esr * watts)) / (2.0 * esr);
        double ceil_a = (params_.vMax - v) * capf / step;
        double i = std::min({i_load, params_.maxCurrentA, ceil_a});
        // As in discharge(): once stuck, stuck for the whole step.
        if (!(v < params_.vMax && i > 0.0))
            break;
        double dt_h = secondsToHours(step);
        absorbed_wh += (v + i * esr) * i * dt_h;
        s_.counters.lossEnergyWh += i * i * esr * dt_h;
        s_.counters.chargeAh += i * dt_h;
        s_.voltage += i * step / capf;
        moved = true;
    }
    s_.counters.chargeEnergyWh += absorbed_wh;
    if (moved) {
        if (s_.lastDirection == 1)
            ++s_.counters.directionChanges;
        s_.lastDirection = -1;
    }
    return absorbed_wh / secondsToHours(dt_seconds);
}

void
Supercapacitor::rest(double dt_seconds)
{
    if (dt_seconds <= 0.0)
        return;
    s_.voltage *= restKeep(dt_seconds);
}

void
Supercapacitor::advanceQuiescent(std::size_t ticks, double dt_seconds)
{
    // Float-charge / idle macro-tick: n rest steps each multiply the
    // voltage by the same memoized keep factor. The loop keeps the
    // per-step rounding of the dense path (a pow() shortcut would not
    // be bitwise-identical), but skips the per-call dispatch and dt
    // checks.
    if (dt_seconds <= 0.0 || ticks == 0)
        return;
    double keep = restKeep(dt_seconds);
    for (std::size_t i = 0; i < ticks; ++i)
        s_.voltage *= keep;
}

} // namespace heb
