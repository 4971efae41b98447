#include "esd/battery.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/units.h"

namespace heb {

// The entry points the pool calls are marked flatten: the model's
// small queries (capacity, SoC, OCV, resistance) are then inlined
// into each of them, so their repeated evaluations share one result
// instead of costing a call and a division each.

Battery::Battery(BatteryParams params) : params_(std::move(params))
{
    if (params_.capacityAh <= 0.0)
        fatal("Battery capacity must be positive");
    if (params_.kibamC <= 0.0 || params_.kibamC >= 1.0)
        fatal("KiBaM c must be in (0,1), got ", params_.kibamC);
    if (params_.kibamK <= 0.0)
        fatal("KiBaM k must be positive");
    if (params_.dodLimit <= 0.0 || params_.dodLimit > 1.0)
        fatal("Battery DoD limit must be in (0,1]");
    if (params_.coulombicEfficiency <= 0.0 ||
        params_.coulombicEfficiency > 1.0) {
        fatal("Battery coulombic efficiency must be in (0,1]");
    }
    reset();
}

const Battery::StepTerms &
Battery::terms(double dt_seconds) const
{
    StepTerms &u = terms_;
    if (dt_seconds == u.dtSeconds)
        return u;
    u.dtSeconds = dt_seconds;
    u.tHours = secondsToHours(dt_seconds);
    u.kt = params_.kibamK * u.tHours;
    u.ekt = std::exp(-u.kt);
    // 1 - e^{-kt} via expm1, stable for tiny kt.
    u.oneMinusEkt = -std::expm1(-u.kt);
    u.thermalAlpha =
        params_.thermalEnabled
            ? 1.0 - std::exp(-dt_seconds / params_.thermalTimeConstantS)
            : 0.0;
    double keep = 1.0 - params_.selfDischargePerHour * u.tHours;
    u.restKeep = std::max(0.0, keep);
    return u;
}

void
Battery::reset()
{
    s_ = BatteryState{};
    ceilings_ = Ceilings{};
    s_.y1 = params_.kibamC * params_.capacityAh;
    s_.y2 = (1.0 - params_.kibamC) * params_.capacityAh;
    s_.tempC = params_.ambientC;
}

void
Battery::applyHealthDerate(double capacity_factor,
                           double resistance_factor)
{
    if (capacity_factor <= 0.0 || capacity_factor > 1.0)
        fatal("Battery health capacity factor must be in (0,1], got ",
              capacity_factor);
    if (resistance_factor < 1.0)
        fatal("Battery health resistance factor must be >= 1, got ",
              resistance_factor);
    ceilings_ = Ceilings{};
    s_.healthCap *= capacity_factor;
    s_.healthRes *= resistance_factor;
    // A lost cell takes its stored charge with it: scale both wells
    // so SoC is preserved against the shrunken capacity.
    s_.y1 *= capacity_factor;
    s_.y2 *= capacity_factor;
}

void
Battery::setSoc(double soc)
{
    if (soc < 0.0 || soc > 1.0)
        fatal("Battery::setSoc out of range: ", soc);
    // Equilibrium split between the wells.
    double q = soc * effectiveCapacityAh();
    ceilings_ = Ceilings{};
    s_.y1 = params_.kibamC * q;
    s_.y2 = (1.0 - params_.kibamC) * q;
}

double
Battery::lifetimeFractionUsed() const
{
    return s_.weightedAh / params_.ratedThroughputAh();
}

double
Battery::effectiveCapacityAh() const
{
    if (!params_.agingEnabled)
        return params_.capacityAh * s_.healthCap;
    double used = std::min(1.0, lifetimeFractionUsed());
    double fade = (1.0 - params_.endOfLifeCapacityFraction) * used;
    return params_.capacityAh * (1.0 - fade) * s_.healthCap;
}

[[gnu::flatten]] double
Battery::soc() const
{
    return (s_.y1 + s_.y2) / effectiveCapacityAh();
}

double
Battery::thermalChargeDerate() const
{
    if (!params_.thermalEnabled || s_.tempC <= params_.chargeDerateStartC)
        return 1.0;
    if (s_.tempC >= params_.chargeCutoffC)
        return 0.0;
    return (params_.chargeCutoffC - s_.tempC) /
           (params_.chargeCutoffC - params_.chargeDerateStartC);
}

double
Battery::openCircuitVoltage() const
{
    double s = std::clamp(soc(), 0.0, 1.0);
    return params_.vEmpty + (params_.vFull - params_.vEmpty) * s;
}

double
Battery::effectiveResistance() const
{
    double s = std::clamp(soc(), 0.0, 1.0);
    double depth = 1.0 - s;
    double aging = 1.0;
    if (params_.agingEnabled) {
        aging += params_.endOfLifeResistanceGrowth *
                 std::min(1.0, lifetimeFractionUsed());
    }
    return params_.internalResistanceOhm * aging * s_.healthRes *
           (1.0 + params_.resistanceGrowthAtLowSoc * depth * depth);
}

[[gnu::flatten]] double
Battery::usableEnergyWh() const
{
    double q_floor = (1.0 - params_.dodLimit) * effectiveCapacityAh();
    double usable_ah = std::max(0.0, s_.y1 + s_.y2 - q_floor);
    return usable_ah * params_.nominalVoltage;
}

double
Battery::wearWeight(double current_a) const
{
    double soc_part = 1.0 + params_.wearSocFactor * (1.0 - soc());
    double ref_a = 0.25 * params_.capacityAh;
    double excess = std::max(0.0, current_a / ref_a - 1.0);
    double current_part = 1.0 + params_.wearCurrentFactor * excess;
    return soc_part * current_part;
}

double
Battery::kibamMaxDischargeCurrent(double dt_seconds) const
{
    return kibamMaxDischargeCurrent(terms(dt_seconds));
}

double
Battery::kibamMaxDischargeCurrent(const StepTerms &u) const
{
    double k = params_.kibamK;
    double c = params_.kibamC;
    double q0 = s_.y1 + s_.y2;
    double denom = u.oneMinusEkt + c * (u.kt - u.oneMinusEkt);
    return denom > 0.0
               ? (k * s_.y1 * u.ekt + q0 * k * c * u.oneMinusEkt) / denom
               : 0.0;
}

double
Battery::kibamMaxChargeCurrent(double dt_seconds) const
{
    return kibamMaxChargeCurrent(terms(dt_seconds));
}

double
Battery::kibamMaxChargeCurrent(const StepTerms &u) const
{
    double k = params_.kibamK;
    double c = params_.kibamC;
    double q0 = s_.y1 + s_.y2;
    double qmax = effectiveCapacityAh();
    double denom = u.oneMinusEkt + c * (u.kt - u.oneMinusEkt);
    double well_limit = (k * c * qmax - k * s_.y1 * u.ekt -
                         q0 * k * c * u.oneMinusEkt) /
                        denom;
    return denom > 0.0 ? std::max(0.0, well_limit) : 0.0;
}

double
Battery::voltageLimitedCurrent() const
{
    double r = effectiveResistance();
    double ocv = openCircuitVoltage();
    // Terminal voltage must stay at or above the cutoff.
    double cutoff_limit = std::max(0.0, (ocv - params_.vCutoff) / r);
    // Past ocv/(2r), delivered power falls with more current; never
    // operate on that branch.
    double peak_power_limit = ocv / (2.0 * r);
    return std::min(cutoff_limit, peak_power_limit);
}

[[gnu::flatten]] double
Battery::terminalVoltage(double load_watts) const
{
    double ocv = openCircuitVoltage();
    if (load_watts <= 0.0)
        return ocv;
    double r = effectiveResistance();
    double disc = ocv * ocv - 4.0 * r * load_watts;
    // A load past the power peak has no real current; report the
    // voltage at the operating limit instead.
    double i = disc < 0.0 ? -1.0 : (ocv - std::sqrt(disc)) / (2.0 * r);
    if (i < 0.0)
        i = voltageLimitedCurrent();
    return ocv - i * r;
}

[[gnu::flatten]] double
Battery::maxDischargePowerW(double dt_seconds) const
{
    return maxDischargePowerW(terms(dt_seconds));
}

double
Battery::maxDischargePowerW(const StepTerms &u) const
{
    if (ceilings_.dischargeDt == u.dtSeconds)
        return ceilings_.dischargeW;
    double t = u.tHours;
    double q_floor = (1.0 - params_.dodLimit) * effectiveCapacityAh();
    double dod_limit_a =
        t > 0.0 ? std::max(0.0, (s_.y1 + s_.y2 - q_floor)) / t : 0.0;
    double i = std::min({kibamMaxDischargeCurrent(u),
                         voltageLimitedCurrent(),
                         params_.maxDischargeCRate * params_.capacityAh,
                         dod_limit_a});
    double p = i <= 0.0
                   ? 0.0
                   : (openCircuitVoltage() - i * effectiveResistance()) * i;
    ceilings_.dischargeDt = u.dtSeconds;
    ceilings_.dischargeW = p;
    return p;
}

[[gnu::flatten]] double
Battery::maxChargePowerW(double dt_seconds) const
{
    return maxChargePowerW(terms(dt_seconds));
}

double
Battery::maxChargePowerW(const StepTerms &u) const
{
    if (ceilings_.chargeDt == u.dtSeconds)
        return ceilings_.chargeW;
    double t = u.tHours;
    double eff = params_.coulombicEfficiency;
    double headroom_ah =
        std::max(0.0, effectiveCapacityAh() - (s_.y1 + s_.y2));
    double headroom_a = t > 0.0 ? headroom_ah / (t * eff) : 0.0;
    double r = effectiveResistance();
    double ocv = openCircuitVoltage();
    double v_limit_a = std::max(0.0, (params_.vChargeMax - ocv) / r);
    double i = std::min(
        {params_.maxChargeCRate * params_.capacityAh *
             thermalChargeDerate(),
         kibamMaxChargeCurrent(u) / eff, headroom_a, v_limit_a});
    double p = i <= 0.0 ? 0.0 : (ocv + i * r) * i;
    ceilings_.chargeDt = u.dtSeconds;
    ceilings_.chargeW = p;
    return p;
}

[[gnu::flatten]] bool
Battery::depleted(double dt_seconds) const
{
    return maxDischargePowerW(dt_seconds) < kDepletedPowerW;
}

void
Battery::stepWells(const StepTerms &u, double current_a)
{
    // Closed-form KiBaM update for constant current over the step
    // (Manwell & McGowan). Positive current discharges.
    double k = params_.kibamK;
    double c = params_.kibamC;
    double q0 = s_.y1 + s_.y2;
    double i = current_a;
    // The step's later writes (weightedAh, temperature) all happen
    // before any ceiling is asked for again: one clear covers them.
    ceilings_ = Ceilings{};

    double y1 = s_.y1 * u.ekt + (q0 * k * c - i) * u.oneMinusEkt / k -
                i * c * (u.kt - u.oneMinusEkt) / k;
    double y2 = s_.y2 * u.ekt + q0 * (1.0 - c) * u.oneMinusEkt -
                i * (1.0 - c) * (u.kt - u.oneMinusEkt) / k;

    double cap = effectiveCapacityAh();
    s_.y1 = std::clamp(y1, 0.0, c * cap);
    s_.y2 = std::clamp(y2, 0.0, (1.0 - c) * cap);
}

void
Battery::stepThermal(const StepTerms &u, double loss_w)
{
    if (!params_.thermalEnabled)
        return;
    ceilings_ = Ceilings{};
    double target =
        params_.ambientC + loss_w * params_.thermalResistanceCPerW;
    s_.tempC += (target - s_.tempC) * u.thermalAlpha;
}

void
Battery::restStep(const StepTerms &u)
{
    stepWells(u, 0.0);
    stepThermal(u, 0.0);
    s_.y1 *= u.restKeep;
    s_.y2 *= u.restKeep;
}

[[gnu::flatten]] double
Battery::discharge(double watts, double dt_seconds)
{
    if (dt_seconds <= 0.0)
        return 0.0;
    const StepTerms &u = terms(dt_seconds);
    // The negated compares send a NaN request to rest() as well.
    if (!(watts > kMinMeaningfulPowerW)) {
        restStep(u);
        return 0.0;
    }
    double p = std::min(watts, maxDischargePowerW(u));
    double r = effectiveResistance();
    double ocv = openCircuitVoltage();
    double disc = ocv * ocv - 4.0 * r * p;
    if (!(p > kMinMeaningfulPowerW && disc >= 0.0)) {
        restStep(u);
        return 0.0;
    }
    double i = (ocv - std::sqrt(disc)) / (2.0 * r);
    // Wear is weighted by the SoC before the step.
    double weight = wearWeight(i);

    stepWells(u, i);
    stepThermal(u, i * i * r);

    double dt_h = u.tHours;
    s_.counters.dischargeEnergyWh += p * dt_h;
    s_.counters.lossEnergyWh += i * i * r * dt_h;
    s_.counters.dischargeAh += i * dt_h;
    s_.weightedAh += i * dt_h * weight;
    if (s_.lastDirection == -1)
        ++s_.counters.directionChanges;
    s_.lastDirection = 1;
    return p;
}

[[gnu::flatten]] double
Battery::charge(double watts, double dt_seconds)
{
    if (dt_seconds <= 0.0)
        return 0.0;
    const StepTerms &u = terms(dt_seconds);
    // The negated compares send a NaN request to rest() as well.
    if (!(watts > kMinMeaningfulPowerW)) {
        restStep(u);
        return 0.0;
    }
    double p = std::min(watts, maxChargePowerW(u));
    if (!(p > kMinMeaningfulPowerW)) {
        restStep(u);
        return 0.0;
    }
    double r = effectiveResistance();
    double ocv = openCircuitVoltage();
    double i = (-ocv + std::sqrt(ocv * ocv + 4.0 * r * p)) / (2.0 * r);
    double eff = params_.coulombicEfficiency;
    double absorbed = (ocv + i * r) * i;
    // Ohmic loss plus the coulombic fraction that never reaches the
    // wells.
    double loss_w = i * i * r + (1.0 - eff) * ocv * i;

    stepWells(u, -eff * i);
    stepThermal(u, loss_w);

    double dt_h = u.tHours;
    s_.counters.chargeEnergyWh += absorbed * dt_h;
    s_.counters.lossEnergyWh += loss_w * dt_h;
    s_.counters.chargeAh += i * dt_h;
    if (s_.lastDirection == 1)
        ++s_.counters.directionChanges;
    s_.lastDirection = -1;
    return absorbed;
}

[[gnu::flatten]] void
Battery::rest(double dt_seconds)
{
    if (dt_seconds <= 0.0)
        return;
    restStep(terms(dt_seconds));
}

[[gnu::flatten]] void
Battery::advanceQuiescent(std::size_t ticks, double dt_seconds)
{
    // Quiescent macro-tick: each rest step is already the exact
    // closed-form KiBaM solution for a zero-current interval —
    // stepWells applies the Manwell–McGowan two-well exponentials
    // with the e^{-kt}/expm1 pair memoized on the fixed tick length,
    // so iterating costs only a handful of multiply-adds per step.
    // Collapsing the n steps into one analytic e^{-nkt} advance
    // would change the rounding of every intermediate well state
    // (and the thermal relaxation and self-discharge interleave),
    // so the loop is kept to preserve the bitwise contract; the
    // derivation and the FP argument live in DESIGN.md §10.
    if (dt_seconds <= 0.0)
        return;
    const StepTerms &u = terms(dt_seconds);
    for (std::size_t i = 0; i < ticks; ++i)
        restStep(u);
}

} // namespace heb
