#include "core/load_assignment.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/logging.h"

namespace heb {

namespace {

/** Dispatch-layer telemetry handles, registered on first use. */
struct DispatchMetrics
{
    obs::Histogram &mismatchW =
        obs::MetricsRegistry::global().histogram(
            "core.dispatch_mismatch_w");
    obs::Counter &spilloverW = obs::MetricsRegistry::global().counter(
        "core.dispatch_spillover_w_ticks");

    static DispatchMetrics &
    get()
    {
        static DispatchMetrics metrics;
        return metrics;
    }
};

} // namespace

DispatchResult
dispatchMismatch(EnergyStorageDevice &sc, EnergyStorageDevice &battery,
                 double mismatch_w, double r_lambda, double dt_seconds,
                 double planned_pm_w)
{
    HEB_PROF_SCOPE("esd.dispatch");
    DispatchResult result;
    if (mismatch_w <= 0.0) {
        sc.rest(dt_seconds);
        battery.rest(dt_seconds);
        return result;
    }
    double r = std::clamp(r_lambda, 0.0, 1.0);

    // Plan targets against each branch's capability estimate so that
    // every device is stepped exactly once per tick (stepping twice
    // would double-count the time and break energy conservation).
    double sc_cap = sc.maxDischargePowerW(dt_seconds);
    double ba_cap = battery.maxDischargePowerW(dt_seconds);

    double ba_target;
    if (planned_pm_w > 0.0) {
        // Battery-as-base: it carries up to its planned share of the
        // slot's expected mismatch; the SC peaks above it.
        double ba_base = (1.0 - r) * planned_pm_w;
        ba_target = std::min({mismatch_w, ba_base, ba_cap});
    } else {
        ba_target = std::min(mismatch_w * (1.0 - r), ba_cap);
    }
    double sc_target = std::min(mismatch_w - ba_target, sc_cap);
    // Spill any remainder back onto the battery branch headroom.
    double leftover = mismatch_w - sc_target - ba_target;
    if (leftover > 0.0)
        ba_target = std::min(ba_target + leftover, ba_cap);

    if (obs::metricsOn()) {
        DispatchMetrics &m = DispatchMetrics::get();
        m.mismatchW.record(mismatch_w);
        if (leftover > 0.0)
            m.spilloverW.add(leftover);
    }

    result.scPowerW =
        sc_target > 0.0 ? sc.discharge(sc_target, dt_seconds) : 0.0;
    result.baPowerW =
        ba_target > 0.0 ? battery.discharge(ba_target, dt_seconds)
                        : 0.0;
    if (sc_target <= 0.0)
        sc.rest(dt_seconds);
    if (ba_target <= 0.0)
        battery.rest(dt_seconds);

    result.unservedW = std::max(0.0, mismatch_w - result.totalW());
    return result;
}

ChargeResult
dispatchCharge(EnergyStorageDevice &sc, EnergyStorageDevice &battery,
               double surplus_w, bool sc_first, double dt_seconds)
{
    ChargeResult result;
    if (surplus_w <= 0.0) {
        sc.rest(dt_seconds);
        battery.rest(dt_seconds);
        return result;
    }
    if (sc_first) {
        // Need-aware parallel fill. The battery's acceptance window
        // (its charge-current ceiling) is the scarce resource, so a
        // *drained* battery trickle-charges at its limit while the SC
        // — which has no charging ceiling — absorbs the remainder.
        // A battery that is still nearly full yields the whole
        // surplus to the SC so small valleys refill the fast buffer
        // first.
        constexpr double kBatteryNeedsChargeBelowSoc = 0.90;
        double ba_target =
            battery.soc() < kBatteryNeedsChargeBelowSoc
                ? std::min(surplus_w, battery.maxChargePowerW(dt_seconds))
                : 0.0;
        result.baPowerW = ba_target > 0.0
                              ? battery.charge(ba_target, dt_seconds)
                              : 0.0;
        double rest_w = surplus_w - result.baPowerW;
        result.scPowerW =
            rest_w > 1e-9 ? sc.charge(rest_w, dt_seconds) : 0.0;
        // Any energy the SC refused (full bank) tops up the battery,
        // which was rested above only if it took no charge at all.
        double leftover = rest_w - result.scPowerW;
        if (ba_target <= 0.0) {
            if (leftover > 1e-9)
                result.baPowerW += battery.charge(leftover, dt_seconds);
            else
                battery.rest(dt_seconds);
        }
        if (rest_w <= 1e-9)
            sc.rest(dt_seconds);
        return result;
    }
    // Battery-priority fill (the homogeneous-minded schemes).
    result.baPowerW = battery.charge(surplus_w, dt_seconds);
    double rest_w = surplus_w - result.baPowerW;
    if (rest_w > 1e-9)
        result.scPowerW = sc.charge(rest_w, dt_seconds);
    else
        sc.rest(dt_seconds);
    return result;
}

std::size_t
serversOnSc(double r_lambda, std::size_t total_servers)
{
    double r = std::clamp(r_lambda, 0.0, 1.0);
    return static_cast<std::size_t>(
        std::lround(r * static_cast<double>(total_servers)));
}

} // namespace heb
