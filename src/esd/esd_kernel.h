/**
 * @file
 * Scalar kernels for the ESD physics.
 *
 * Every floating-point expression of the KiBaM battery and the
 * ideal-capacitor supercapacitor lives here exactly once, as inline
 * functions over plain state references; Battery and Supercapacitor
 * call them on their own members.
 *
 * Several step kernels are written branch-free: the early-outs of an
 * inactive step (request below threshold, capability exhausted) are
 * folded into a mask under which the step performs exactly the
 * rest() update, and its counter adds become `+= 0.0` — bitwise
 * no-ops, because every accumulator involved is non-negative.
 * Conditions that depend only on (params, dt) are passed as plain
 * bool flags (BatteryFlags).
 *
 * Reassociation, formula rewrites and fast-math remain forbidden: the
 * kernels transcribe the historical per-device code verbatim.
 */

#pragma once

#include <algorithm>
#include <cmath>

#include "esd/battery_params.h"
#include "esd/sc_params.h"
#include "util/logging.h"
#include "util/units.h"

namespace heb {
namespace esd_kernel {

/** Smallest power (W) worth actually moving; below this we rest. */
constexpr double kMinMeaningfulPowerW = 1e-9;

/** Threshold (W) below which a device counts as depleted. */
constexpr double kDepletedPowerW = 1.0;

/** Integration sub-step (seconds) for SC voltage dynamics. */
constexpr double kScSubStepSeconds = 1.0;

// ====================================================================
// Battery (KiBaM)
// ====================================================================

/**
 * Per-(params, dt) uniform terms — the same values the per-device
 * memos (KibamStepTerms / thermal alpha / rest keep) historically
 * cached, computed by the same expressions.
 */
struct BatteryStepUniforms
{
    double dtSeconds = -1.0; //!< step the terms were computed for
    double tHours = 0.0;     //!< dt in hours
    double kt = 0.0;         //!< k·t
    double ekt = 1.0;        //!< e^{-k·t}
    double oneMinusEkt = 0.0; //!< 1 - e^{-k·t} (expm1, stable)
    double thermalAlpha = 0.0; //!< 1 - e^{-dt/tau} (0 if disabled)
    double restKeep = 1.0;   //!< max(0, 1 - selfDis·t)
};

/** Refresh @p u for (@p p, @p dt_seconds); no-op when dt matches. */
inline void
refreshBatteryUniforms(const BatteryParams &p, double dt_seconds,
                       BatteryStepUniforms &u)
{
    if (dt_seconds == u.dtSeconds)
        return;
    u.dtSeconds = dt_seconds;
    u.tHours = secondsToHours(dt_seconds);
    u.kt = p.kibamK * u.tHours;
    u.ekt = std::exp(-u.kt);
    // 1 - e^{-kt} via expm1, stable for tiny kt.
    u.oneMinusEkt = -std::expm1(-u.kt);
    u.thermalAlpha =
        p.thermalEnabled
            ? 1.0 - std::exp(-dt_seconds / p.thermalTimeConstantS)
            : 0.0;
    double keep = 1.0 - p.selfDischargePerHour * u.tHours;
    u.restKeep = std::max(0.0, keep);
}

/**
 * Branch conditions that depend only on (params, dt). The flagged
 * kernels take them as parameters; the wrappers with the original
 * signatures compute them with batteryFlags().
 */
struct BatteryFlags
{
    bool aging;    //!< p.agingEnabled
    bool thermal;  //!< p.thermalEnabled
    bool dtPos;    //!< u.tHours > 0
    bool denomPos; //!< batteryKibamDenom(p, u) > 0
};

/** The shared KiBaM rate-equation denominator for (p, dt). */
inline double
batteryKibamDenom(const BatteryParams &p,
                  const BatteryStepUniforms &u)
{
    return u.oneMinusEkt + p.kibamC * (u.kt - u.oneMinusEkt);
}

/** Flag evaluation for the unflagged wrappers. */
inline BatteryFlags
batteryFlags(const BatteryParams &p, const BatteryStepUniforms &u)
{
    return {p.agingEnabled, p.thermalEnabled, u.tHours > 0.0,
            batteryKibamDenom(p, u) > 0.0};
}

/** Read-only hot state of one battery (by value — copies are cheap). */
struct BatteryView
{
    const BatteryParams &p;
    double y1, y2;
    double healthCap, healthRes;
    double weightedAh, tempC;
};

/** Mutable hot state of one battery, by reference. */
struct BatteryRef
{
    const BatteryParams &p;
    double &y1, &y2;
    double &healthCap, &healthRes;
    double &weightedAh, &tempC;
    int &lastDirection;
    double &chargeEnergyWh, &dischargeEnergyWh, &lossEnergyWh;
    double &dischargeAh, &chargeAh;
    unsigned long &directionChanges;
};

inline BatteryView
batteryView(const BatteryRef &s)
{
    return {s.p,        s.y1,    s.y2,        s.healthCap,
            s.healthRes, s.weightedAh, s.tempC};
}

inline double
batteryLifetimeFraction(const BatteryView &v)
{
    return v.weightedAh / v.p.ratedThroughputAh();
}

inline double
batteryEffectiveCapacityAh(const BatteryView &v, bool aging)
{
    if (!aging)
        return v.p.capacityAh * v.healthCap;
    double used = std::min(1.0, batteryLifetimeFraction(v));
    double fade = (1.0 - v.p.endOfLifeCapacityFraction) * used;
    return v.p.capacityAh * (1.0 - fade) * v.healthCap;
}

inline double
batteryEffectiveCapacityAh(const BatteryView &v)
{
    return batteryEffectiveCapacityAh(v, v.p.agingEnabled);
}

inline double
batterySoc(const BatteryView &v, bool aging)
{
    return (v.y1 + v.y2) / batteryEffectiveCapacityAh(v, aging);
}

inline double
batterySoc(const BatteryView &v)
{
    return batterySoc(v, v.p.agingEnabled);
}

inline double
batteryOpenCircuitVoltage(const BatteryView &v, bool aging)
{
    double s = std::clamp(batterySoc(v, aging), 0.0, 1.0);
    return v.p.vEmpty + (v.p.vFull - v.p.vEmpty) * s;
}

inline double
batteryOpenCircuitVoltage(const BatteryView &v)
{
    return batteryOpenCircuitVoltage(v, v.p.agingEnabled);
}

inline double
batteryEffectiveResistance(const BatteryView &v, bool aging_on)
{
    double s = std::clamp(batterySoc(v, aging_on), 0.0, 1.0);
    double depth = 1.0 - s;
    double aging = 1.0;
    if (aging_on) {
        aging += v.p.endOfLifeResistanceGrowth *
                 std::min(1.0, batteryLifetimeFraction(v));
    }
    return v.p.internalResistanceOhm * aging * v.healthRes *
           (1.0 + v.p.resistanceGrowthAtLowSoc * depth * depth);
}

inline double
batteryEffectiveResistance(const BatteryView &v)
{
    return batteryEffectiveResistance(v, v.p.agingEnabled);
}

inline double
batteryThermalChargeDerate(const BatteryView &v, bool thermal)
{
    if (!thermal)
        return 1.0;
    double span_derate = (v.p.chargeCutoffC - v.tempC) /
                         (v.p.chargeCutoffC - v.p.chargeDerateStartC);
    return v.tempC <= v.p.chargeDerateStartC
               ? 1.0
               : (v.tempC >= v.p.chargeCutoffC ? 0.0 : span_derate);
}

inline double
batteryThermalChargeDerate(const BatteryView &v)
{
    return batteryThermalChargeDerate(v, v.p.thermalEnabled);
}

inline double
batteryUsableEnergyWh(const BatteryView &v, bool aging)
{
    double q_floor =
        (1.0 - v.p.dodLimit) * batteryEffectiveCapacityAh(v, aging);
    double usable_ah = std::max(0.0, v.y1 + v.y2 - q_floor);
    return usable_ah * v.p.nominalVoltage;
}

inline double
batteryUsableEnergyWh(const BatteryView &v)
{
    return batteryUsableEnergyWh(v, v.p.agingEnabled);
}

inline double
batteryWearWeight(const BatteryView &v, double current_a, bool aging)
{
    double soc_part =
        1.0 + v.p.wearSocFactor * (1.0 - batterySoc(v, aging));
    double ref_a = 0.25 * v.p.capacityAh;
    double excess = std::max(0.0, current_a / ref_a - 1.0);
    double current_part = 1.0 + v.p.wearCurrentFactor * excess;
    return soc_part * current_part;
}

inline double
batteryKibamMaxDischargeCurrent(const BatteryView &v,
                                const BatteryStepUniforms &u,
                                bool denom_pos)
{
    double k = v.p.kibamK;
    double c = v.p.kibamC;
    double q0 = v.y1 + v.y2;
    double denom = batteryKibamDenom(v.p, u);
    return !denom_pos
               ? 0.0
               : (k * v.y1 * u.ekt + q0 * k * c * u.oneMinusEkt) /
                     denom;
}

inline double
batteryKibamMaxDischargeCurrent(const BatteryView &v,
                                const BatteryStepUniforms &u)
{
    return batteryKibamMaxDischargeCurrent(
        v, u, batteryKibamDenom(v.p, u) > 0.0);
}

inline double
batteryKibamMaxChargeCurrent(const BatteryView &v,
                             const BatteryStepUniforms &u, bool aging,
                             bool denom_pos)
{
    double k = v.p.kibamK;
    double c = v.p.kibamC;
    double q0 = v.y1 + v.y2;
    double qmax = batteryEffectiveCapacityAh(v, aging);
    double denom = batteryKibamDenom(v.p, u);
    double well_limit =
        (k * c * qmax - k * v.y1 * u.ekt - q0 * k * c * u.oneMinusEkt) /
        denom;
    return !denom_pos ? 0.0 : std::max(0.0, well_limit);
}

inline double
batteryKibamMaxChargeCurrent(const BatteryView &v,
                             const BatteryStepUniforms &u)
{
    return batteryKibamMaxChargeCurrent(
        v, u, v.p.agingEnabled, batteryKibamDenom(v.p, u) > 0.0);
}

inline double
batteryVoltageLimitedCurrent(const BatteryView &v, bool aging)
{
    double r = batteryEffectiveResistance(v, aging);
    double ocv = batteryOpenCircuitVoltage(v, aging);
    // Terminal voltage must stay at or above the cutoff.
    double cutoff_limit = std::max(0.0, (ocv - v.p.vCutoff) / r);
    // Past ocv/(2r), delivered power falls with more current; never
    // operate on that branch.
    double peak_power_limit = ocv / (2.0 * r);
    return std::min(cutoff_limit, peak_power_limit);
}

inline double
batteryVoltageLimitedCurrent(const BatteryView &v)
{
    return batteryVoltageLimitedCurrent(v, v.p.agingEnabled);
}

/** Current (A) that draws @p watts at the terminals, or -1. */
inline double
batteryDischargeCurrentFor(const BatteryView &v, double watts)
{
    double r = batteryEffectiveResistance(v);
    double ocv = batteryOpenCircuitVoltage(v);
    double disc = ocv * ocv - 4.0 * r * watts;
    if (disc < 0.0)
        return -1.0;
    return (ocv - std::sqrt(disc)) / (2.0 * r);
}

inline double
batteryMaxDischargePowerW(const BatteryView &v,
                          const BatteryStepUniforms &u,
                          const BatteryFlags f)
{
    double t = u.tHours;
    double q_floor =
        (1.0 - v.p.dodLimit) * batteryEffectiveCapacityAh(v, f.aging);
    double dod_limit_a =
        f.dtPos ? std::max(0.0, (v.y1 + v.y2 - q_floor)) / t : 0.0;
    // Same left-to-right fold as std::min({a, b, c, d}).
    double i = std::min(
        std::min(
            std::min(
                batteryKibamMaxDischargeCurrent(v, u, f.denomPos),
                batteryVoltageLimitedCurrent(v, f.aging)),
            v.p.maxDischargeCRate * v.p.capacityAh),
        dod_limit_a);
    return i <= 0.0 ? 0.0
                    : (batteryOpenCircuitVoltage(v, f.aging) -
                       i * batteryEffectiveResistance(v, f.aging)) *
                          i;
}

inline double
batteryMaxDischargePowerW(const BatteryView &v,
                          const BatteryStepUniforms &u)
{
    return batteryMaxDischargePowerW(v, u, batteryFlags(v.p, u));
}

inline double
batteryMaxChargePowerW(const BatteryView &v,
                       const BatteryStepUniforms &u,
                       const BatteryFlags f)
{
    double t = u.tHours;
    double eff = v.p.coulombicEfficiency;
    double headroom_ah = std::max(
        0.0, batteryEffectiveCapacityAh(v, f.aging) - (v.y1 + v.y2));
    double headroom_a = f.dtPos ? headroom_ah / (t * eff) : 0.0;
    double r = batteryEffectiveResistance(v, f.aging);
    double ocv = batteryOpenCircuitVoltage(v, f.aging);
    double v_limit_a = std::max(0.0, (v.p.vChargeMax - ocv) / r);
    double i = std::min(
        std::min(
            std::min(v.p.maxChargeCRate * v.p.capacityAh *
                         batteryThermalChargeDerate(v, f.thermal),
                     batteryKibamMaxChargeCurrent(v, u, f.aging,
                                                  f.denomPos) /
                         eff),
            headroom_a),
        v_limit_a);
    return i <= 0.0 ? 0.0 : (ocv + i * r) * i;
}

inline double
batteryMaxChargePowerW(const BatteryView &v,
                       const BatteryStepUniforms &u)
{
    return batteryMaxChargePowerW(v, u, batteryFlags(v.p, u));
}

inline bool
batteryDepleted(const BatteryView &v, const BatteryStepUniforms &u)
{
    return batteryMaxDischargePowerW(v, u) < kDepletedPowerW;
}

inline double
batteryTerminalVoltage(const BatteryView &v, double load_watts)
{
    if (load_watts <= 0.0)
        return batteryOpenCircuitVoltage(v);
    double i = batteryDischargeCurrentFor(v, load_watts);
    if (i < 0.0)
        i = batteryVoltageLimitedCurrent(v);
    return batteryOpenCircuitVoltage(v) -
           i * batteryEffectiveResistance(v);
}

/** Advance both wells under constant current for dt (closed form). */
inline void
batteryStepWells(const BatteryRef &s, const BatteryStepUniforms &u,
                 double current_a, bool aging)
{
    // Closed-form KiBaM update for constant current over the step
    // (Manwell & McGowan). Positive current discharges.
    double k = s.p.kibamK;
    double c = s.p.kibamC;
    double q0 = s.y1 + s.y2;
    double ekt = u.ekt;
    double one_m_ekt = u.oneMinusEkt;
    double kt = u.kt;
    double i = current_a;

    double y1 = s.y1 * ekt + (q0 * k * c - i) * one_m_ekt / k -
                i * c * (kt - one_m_ekt) / k;
    double y2 = s.y2 * ekt + q0 * (1.0 - c) * one_m_ekt -
                i * (1.0 - c) * (kt - one_m_ekt) / k;

    double cap = batteryEffectiveCapacityAh(batteryView(s), aging);
    s.y1 = std::clamp(y1, 0.0, c * cap);
    s.y2 = std::clamp(y2, 0.0, (1.0 - c) * cap);
}

/** First-order thermal update given this tick's loss power. */
inline void
batteryStepThermal(const BatteryRef &s, const BatteryStepUniforms &u,
                   double loss_w, bool thermal)
{
    if (!thermal)
        return;
    double target =
        s.p.ambientC + loss_w * s.p.thermalResistanceCPerW;
    s.tempC += (target - s.tempC) * u.thermalAlpha;
}

/**
 * One rest step (dt > 0): the exact per-tick idle update. Mirrors the
 * historical Battery::rest body with the keep factor precomputed in
 * the uniforms by the same expression.
 */
inline void
batteryRestStep(const BatteryRef &s, const BatteryStepUniforms &u,
                const BatteryFlags f)
{
    batteryStepWells(s, u, 0.0, f.aging);
    batteryStepThermal(s, u, 0.0, f.thermal);
    s.y1 *= u.restKeep;
    s.y2 *= u.restKeep;
}

inline void
batteryRestStep(const BatteryRef &s, const BatteryStepUniforms &u)
{
    batteryRestStep(s, u, batteryFlags(s.p, u));
}

/**
 * One discharge step (dt > 0). The historical early-outs (request
 * below threshold, capability exhausted, quadratic has no root) are
 * folded into one mask: an inactive step performs exactly the
 * rest() update — stepWells(0), stepThermal(0), the self-discharge
 * multiply — and its counter adds become `+= 0.0`, bitwise no-ops on
 * the non-negative accumulators. An active step performs the same
 * ops as the historical branchy code, in the same order.
 *
 * @return Power delivered (0 for an inactive step).
 */
inline double
batteryDischargeStep(const BatteryRef &s,
                     const BatteryStepUniforms &u, double watts,
                     const BatteryFlags f)
{
    const BatteryView v = batteryView(s);
    double max_p = batteryMaxDischargePowerW(v, u, f);
    double pw = std::min(watts, max_p);
    double r = batteryEffectiveResistance(v, f.aging);
    double ocv = batteryOpenCircuitVoltage(v, f.aging);
    double disc = ocv * ocv - 4.0 * r * pw;
    // sqrt operand clamped so an inactive step (disc < 0) computes
    // a discarded finite value instead of a NaN; when disc >= 0 the
    // clamp is exact.
    double i_raw =
        (ocv - std::sqrt(std::max(disc, 0.0))) / (2.0 * r);
    // Non-short-circuit & keeps the mask a flat bool computation;
    // the operands are side-effect-free compares, so the value is
    // the same as with &&.
    bool active = (watts > kMinMeaningfulPowerW) &
                  (pw > kMinMeaningfulPowerW) & (disc >= 0.0);
    double i = active ? i_raw : 0.0;
    double weight = batteryWearWeight(v, i, f.aging);

    batteryStepWells(s, u, i, f.aging);
    batteryStepThermal(s, u, active ? i * i * r : 0.0, f.thermal);
    double rest_keep = u.restKeep;
    double keep = active ? 1.0 : rest_keep;
    s.y1 *= keep;
    s.y2 *= keep;

    double dt_h = u.tHours;
    s.dischargeEnergyWh += active ? pw * dt_h : 0.0;
    s.lossEnergyWh += active ? i * i * r * dt_h : 0.0;
    s.dischargeAh += active ? i * dt_h : 0.0;
    s.weightedAh += active ? i * dt_h * weight : 0.0;
    // Unconditional updates; values match the historical guarded
    // updates exactly.
    int ld = s.lastDirection;
    s.directionChanges += (active & (ld == -1)) ? 1ul : 0ul;
    s.lastDirection = active ? 1 : ld;
    return active ? pw : 0.0;
}

inline double
batteryDischargeStep(const BatteryRef &s,
                     const BatteryStepUniforms &u, double watts)
{
    return batteryDischargeStep(s, u, watts, batteryFlags(s.p, u));
}

/**
 * One charge step (dt > 0); mask contract as the discharge step.
 * @return Power absorbed (0 for an inactive step).
 */
inline double
batteryChargeStep(const BatteryRef &s, const BatteryStepUniforms &u,
                  double watts, const BatteryFlags f)
{
    const BatteryView v = batteryView(s);
    double p_cap = batteryMaxChargePowerW(v, u, f);
    double pw = std::min(watts, p_cap);
    double r = batteryEffectiveResistance(v, f.aging);
    double ocv = batteryOpenCircuitVoltage(v, f.aging);
    double i_raw =
        (-ocv + std::sqrt(ocv * ocv + 4.0 * r * pw)) / (2.0 * r);
    // Flat & as in the discharge step.
    bool active = (watts > kMinMeaningfulPowerW) &
                  (pw > kMinMeaningfulPowerW);
    double i = active ? i_raw : 0.0;
    double eff = s.p.coulombicEfficiency;
    double absorbed = (ocv + i * r) * i;

    // An inactive step passes exactly +0.0 (not -eff·0 = -0.0) so
    // the wells update is bit-for-bit the rest() update.
    batteryStepWells(s, u, active ? -eff * i : 0.0, f.aging);
    batteryStepThermal(
        s, u, active ? i * i * r + (1.0 - eff) * ocv * i : 0.0,
        f.thermal);
    double rest_keep = u.restKeep;
    double keep = active ? 1.0 : rest_keep;
    s.y1 *= keep;
    s.y2 *= keep;

    double dt_h = u.tHours;
    s.chargeEnergyWh += active ? absorbed * dt_h : 0.0;
    // Ohmic loss plus the coulombic fraction that never reaches the
    // wells.
    s.lossEnergyWh +=
        active ? (i * i * r + (1.0 - eff) * ocv * i) * dt_h : 0.0;
    s.chargeAh += active ? i * dt_h : 0.0;
    int ld = s.lastDirection;
    s.directionChanges += (active & (ld == 1)) ? 1ul : 0ul;
    s.lastDirection = active ? -1 : ld;
    return active ? absorbed : 0.0;
}

inline double
batteryChargeStep(const BatteryRef &s, const BatteryStepUniforms &u,
                  double watts)
{
    return batteryChargeStep(s, u, watts, batteryFlags(s.p, u));
}

/** Restore factory-fresh state (full charge, zero wear). */
inline void
batteryReset(const BatteryRef &s)
{
    s.healthCap = 1.0;
    s.healthRes = 1.0;
    s.y1 = s.p.kibamC * s.p.capacityAh;
    s.y2 = (1.0 - s.p.kibamC) * s.p.capacityAh;
    s.weightedAh = 0.0;
    s.tempC = s.p.ambientC;
    s.lastDirection = 0;
    s.chargeEnergyWh = 0.0;
    s.dischargeEnergyWh = 0.0;
    s.lossEnergyWh = 0.0;
    s.dischargeAh = 0.0;
    s.chargeAh = 0.0;
    s.directionChanges = 0;
}

/** Force SoC without moving energy through the terminals. */
inline void
batterySetSoc(const BatteryRef &s, double soc)
{
    if (soc < 0.0 || soc > 1.0)
        fatal("Battery::setSoc out of range: ", soc);
    // Equilibrium split between the wells.
    double q = soc * batteryEffectiveCapacityAh(batteryView(s));
    s.y1 = s.p.kibamC * q;
    s.y2 = (1.0 - s.p.kibamC) * q;
}

/** Compound a health derate (validated like the device method). */
inline void
batteryApplyHealthDerate(const BatteryRef &s, double capacity_factor,
                         double resistance_factor)
{
    if (capacity_factor <= 0.0 || capacity_factor > 1.0)
        fatal("Battery health capacity factor must be in (0,1], got ",
              capacity_factor);
    if (resistance_factor < 1.0)
        fatal("Battery health resistance factor must be >= 1, got ",
              resistance_factor);
    s.healthCap *= capacity_factor;
    s.healthRes *= resistance_factor;
    // A lost cell takes its stored charge with it: scale both wells
    // so SoC is preserved against the shrunken capacity.
    s.y1 *= capacity_factor;
    s.y2 *= capacity_factor;
}

// ====================================================================
// Supercapacitor (ideal capacitor + ESR)
// ====================================================================

/** Per-(params, dt) uniform terms for the SC kernels. */
struct ScStepUniforms
{
    double dtSeconds = -1.0;
    double restKeep = 1.0; //!< e^{-selfDis·t}
};

inline void
refreshScUniforms(const ScParams &p, double dt_seconds,
                  ScStepUniforms &u)
{
    if (dt_seconds == u.dtSeconds)
        return;
    u.dtSeconds = dt_seconds;
    u.restKeep = std::exp(-p.selfDischargePerHour *
                          secondsToHours(dt_seconds));
}

/** Read-only hot state of one supercapacitor. */
struct ScView
{
    const ScParams &p;
    double voltage;
    double healthCap, healthRes;
};

/** Mutable hot state of one supercapacitor. */
struct ScRef
{
    const ScParams &p;
    double &voltage;
    double &healthCap, &healthRes;
    int &lastDirection;
    double &chargeEnergyWh, &dischargeEnergyWh, &lossEnergyWh;
    double &dischargeAh, &chargeAh;
    unsigned long &directionChanges;
};

inline double
scEffectiveEsrOhm(const ScView &v)
{
    return v.p.esrOhm * v.healthRes;
}

inline double
scEffectiveCapacitanceF(const ScView &v)
{
    return v.p.capacitanceF * v.healthCap;
}

inline double
scSoc(const ScView &v)
{
    double num = v.voltage * v.voltage - v.p.vMin * v.p.vMin;
    double den = v.p.vMax * v.p.vMax - v.p.vMin * v.p.vMin;
    return std::clamp(num / den, 0.0, 1.0);
}

inline double
scUsableEnergyWh(const ScView &v)
{
    double v2 = std::max(
        v.voltage * v.voltage - v.p.vMin * v.p.vMin, 0.0);
    return 0.5 * scEffectiveCapacitanceF(v) * v2 / kSecondsPerHour;
}

/** Discharge current (A) that delivers @p watts, or -1. */
inline double
scDischargeCurrentFor(const ScView &v, double watts)
{
    double disc = v.voltage * v.voltage -
                  4.0 * scEffectiveEsrOhm(v) * watts;
    if (disc < 0.0)
        return -1.0;
    return (v.voltage - std::sqrt(disc)) /
           (2.0 * scEffectiveEsrOhm(v));
}

inline double
scTerminalVoltage(const ScView &v, double load_watts)
{
    if (load_watts <= 0.0)
        return v.voltage;
    double i = scDischargeCurrentFor(v, load_watts);
    if (i < 0.0)
        i = v.voltage / (2.0 * scEffectiveEsrOhm(v));
    return v.voltage - i * scEffectiveEsrOhm(v);
}

inline double
scMaxDischargePowerW(const ScView &v, double dt_seconds, bool dt_pos)
{
    // Current bound from the energy left before hitting the floor,
    // spread across the requested horizon.
    double energy_bound_a =
        dt_pos ? (v.voltage - v.p.vMin) * scEffectiveCapacitanceF(v) /
                     dt_seconds
               : v.p.maxCurrentA;
    // Never operate past the power peak of the ESR divider.
    double peak_a = v.voltage / (2.0 * scEffectiveEsrOhm(v));
    // Same left-to-right fold as std::min({a, b, c}).
    double i = std::min(std::min(v.p.maxCurrentA, energy_bound_a),
                        peak_a);
    double power = (v.voltage - i * scEffectiveEsrOhm(v)) * i;
    return v.voltage <= v.p.vMin ? 0.0 : (i <= 0.0 ? 0.0 : power);
}

inline double
scMaxDischargePowerW(const ScView &v, double dt_seconds)
{
    return scMaxDischargePowerW(v, dt_seconds, dt_seconds > 0.0);
}

inline double
scMaxChargePowerW(const ScView &v, double dt_seconds, bool dt_pos)
{
    double headroom_a =
        dt_pos ? (v.p.vMax - v.voltage) * scEffectiveCapacitanceF(v) /
                     dt_seconds
               : v.p.maxCurrentA;
    double i = std::min(v.p.maxCurrentA, headroom_a);
    double power = (v.voltage + i * scEffectiveEsrOhm(v)) * i;
    return v.voltage >= v.p.vMax ? 0.0 : (i <= 0.0 ? 0.0 : power);
}

inline double
scMaxChargePowerW(const ScView &v, double dt_seconds)
{
    return scMaxChargePowerW(v, dt_seconds, dt_seconds > 0.0);
}

inline bool
scDepleted(const ScView &v, double dt_seconds)
{
    return scMaxDischargePowerW(v, dt_seconds) < kDepletedPowerW;
}

inline double
scLifetimeFraction(const ScParams &p, double discharge_ah)
{
    double cycles = discharge_ah / p.fullCycleAh();
    return cycles / p.ratedCycleLife;
}

/** One rest step (dt > 0). */
inline void
scRestStep(const ScRef &s, const ScStepUniforms &u)
{
    s.voltage *= u.restKeep;
}

/**
 * One SC discharge sub-step of length @p step. The historical
 * per-sub-step guards (voltage at the floor, current clamped to
 * zero, request below threshold) are folded into one mask; a
 * masked sub-step leaves every accumulator bit-identical (`+= 0.0` /
 * `-= 0.0` on non-negative state). ESR/capacitance are recomputed
 * per sub-step from factors that cannot move inside a step, so the
 * products equal the historical loop-hoisted values.
 *
 * @return Whether the sub-step actually moved charge.
 */
inline bool
scDischargeSubStep(const ScRef &s, double watts, double step,
                   double &delivered_wh)
{
    double esr = s.p.esrOhm * s.healthRes;
    double capf = s.p.capacitanceF * s.healthCap;
    double vv = s.voltage;
    double disc = vv * vv - 4.0 * esr * watts;
    // When disc < 0 the clamp makes the sqrt term exactly +0.0 and
    // vv - 0.0 == vv bitwise, so this unconditional form reproduces
    // the historical `disc < 0 ? vv / (2 esr) : ...` branch for both
    // cases.
    double i0 =
        (vv - std::sqrt(std::max(disc, 0.0))) / (2.0 * esr);
    double floor_a = (vv - s.p.vMin) * capf / step;
    // Same left-to-right fold as std::min({i, maxA, floor}).
    double i = std::min(std::min(i0, s.p.maxCurrentA), floor_a);
    // Flat & as in the battery steps.
    bool act = (watts > kMinMeaningfulPowerW) & (vv > s.p.vMin) &
               (i > 0.0);
    double i_eff = act ? i : 0.0;
    double p = (vv - i_eff * esr) * i_eff;
    double dt_h = secondsToHours(step);
    delivered_wh += act ? p * dt_h : 0.0;
    s.lossEnergyWh += act ? i_eff * i_eff * esr * dt_h : 0.0;
    s.dischargeAh += act ? i_eff * dt_h : 0.0;
    s.voltage -= act ? i_eff * step / capf : 0.0;
    return act;
}

/** One SC charge sub-step; contract as scDischargeSubStep. */
inline bool
scChargeSubStep(const ScRef &s, double watts, double step,
                double &absorbed_wh)
{
    double esr = s.p.esrOhm * s.healthRes;
    double capf = s.p.capacitanceF * s.healthCap;
    double vv = s.voltage;
    double i0 = (-vv + std::sqrt(vv * vv + 4.0 * esr * watts)) /
                (2.0 * esr);
    double ceil_a = (s.p.vMax - vv) * capf / step;
    double i = std::min(std::min(i0, s.p.maxCurrentA), ceil_a);
    bool act = (watts > kMinMeaningfulPowerW) & (vv < s.p.vMax) &
               (i > 0.0);
    double i_eff = act ? i : 0.0;
    double p = (vv + i_eff * esr) * i_eff;
    double dt_h = secondsToHours(step);
    absorbed_wh += act ? p * dt_h : 0.0;
    s.lossEnergyWh += act ? i_eff * i_eff * esr * dt_h : 0.0;
    s.chargeAh += act ? i_eff * dt_h : 0.0;
    s.voltage += act ? i_eff * step / capf : 0.0;
    return act;
}

/**
 * One discharge step (dt > 0) in kScSubStepSeconds sub-steps. A request
 * at or below the threshold performs the rest() update, exactly as
 * the historical early-out did.
 */
inline double
scDischargeStep(const ScRef &s, const ScStepUniforms &u, double watts)
{
    if (watts <= kMinMeaningfulPowerW) {
        s.voltage *= u.restKeep;
        return 0.0;
    }
    double delivered_wh = 0.0;
    double remaining = u.dtSeconds;
    bool moved = false;
    while (remaining > 0.0) {
        double step = std::min(remaining, kScSubStepSeconds);
        remaining -= step;
        moved =
            scDischargeSubStep(s, watts, step, delivered_wh) || moved;
    }
    // Historical quirk kept verbatim: the delivered total is added
    // unconditionally once the sub-step loop ran.
    s.dischargeEnergyWh += delivered_wh;
    int ld = s.lastDirection;
    s.directionChanges += (moved & (ld == -1)) ? 1ul : 0ul;
    s.lastDirection = moved ? 1 : ld;
    // Report the average power actually delivered over the step.
    return delivered_wh / secondsToHours(u.dtSeconds);
}

/** One charge step (dt > 0); contract as the discharge step. */
inline double
scChargeStep(const ScRef &s, const ScStepUniforms &u, double watts)
{
    if (watts <= kMinMeaningfulPowerW) {
        s.voltage *= u.restKeep;
        return 0.0;
    }
    double absorbed_wh = 0.0;
    double remaining = u.dtSeconds;
    bool moved = false;
    while (remaining > 0.0) {
        double step = std::min(remaining, kScSubStepSeconds);
        remaining -= step;
        moved = scChargeSubStep(s, watts, step, absorbed_wh) || moved;
    }
    s.chargeEnergyWh += absorbed_wh;
    int ld = s.lastDirection;
    s.directionChanges += (moved & (ld == 1)) ? 1ul : 0ul;
    s.lastDirection = moved ? -1 : ld;
    return absorbed_wh / secondsToHours(u.dtSeconds);
}

/** Restore factory-fresh state (full charge, zero counters). */
inline void
scReset(const ScRef &s)
{
    s.healthCap = 1.0;
    s.healthRes = 1.0;
    s.voltage = s.p.vMax;
    s.lastDirection = 0;
    s.chargeEnergyWh = 0.0;
    s.dischargeEnergyWh = 0.0;
    s.lossEnergyWh = 0.0;
    s.dischargeAh = 0.0;
    s.chargeAh = 0.0;
    s.directionChanges = 0;
}

/** Force SoC without moving energy through the terminals. */
inline void
scSetSoc(const ScRef &s, double soc)
{
    if (soc < 0.0 || soc > 1.0)
        fatal("Supercapacitor::setSoc out of range: ", soc);
    double v2 = s.p.vMin * s.p.vMin +
                soc * (s.p.vMax * s.p.vMax - s.p.vMin * s.p.vMin);
    s.voltage = std::sqrt(v2);
}

/** Compound a health derate (validated like the device method). */
inline void
scApplyHealthDerate(const ScRef &s, double capacity_factor,
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
    s.healthCap *= capacity_factor;
    s.healthRes *= resistance_factor;
}

} // namespace esd_kernel
} // namespace heb
