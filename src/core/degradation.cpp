#include "core/degradation.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"

namespace heb {

const char *
degradationActionName(DegradationAction action)
{
    switch (action) {
      case DegradationAction::None: return "none";
      case DegradationAction::Rebalanced: return "rebalanced";
      case DegradationAction::BatteryOnly: return "battery-only";
      case DegradationAction::ScOnly: return "sc-only";
      case DegradationAction::Shed: return "shed";
    }
    return "?";
}

DegradationPolicy::DegradationPolicy(DeviceFactory sc_factory,
                                     DeviceFactory ba_factory,
                                     DegradationPolicyParams params)
    : scFactory_(std::move(sc_factory)),
      baFactory_(std::move(ba_factory)), params_(params)
{
    if (!scFactory_ || !baFactory_)
        fatal("DegradationPolicy requires both device factories");
    if (params_.minRideThroughSeconds <= 0.0)
        fatal("DegradationPolicy minRideThroughSeconds must be "
              "positive");
    if (params_.horizonSeconds < params_.minRideThroughSeconds)
        fatal("DegradationPolicy horizon must cover the ride-through "
              "target");
}

double
DegradationPolicy::socFromUsableWh(const DeviceFactory &factory,
                                   double usable_wh) const
{
    // usableEnergyWh is (piecewise) linear in SoC for both device
    // families: batteries above their DoD floor, SCs over the whole
    // voltage window. Probe a fresh device at two SoCs and invert
    // the line. The factory builds a *healthy* device, so under a
    // capacity derate this yields the healthy-equivalent SoC — which
    // is exactly what the estimator (also fed fresh devices) needs.
    auto probe = factory();
    probe->setSoc(1.0);
    double u_full = probe->usableEnergyWh();
    probe->setSoc(0.5);
    double u_half = probe->usableEnergyWh();
    double slope = (u_full - u_half) / 0.5;
    if (slope <= 0.0)
        return 1.0;
    double intercept = u_full - slope;
    return std::clamp((usable_wh - intercept) / slope, 0.0, 1.0);
}

RideThroughEstimate
DegradationPolicy::probe(double r_lambda, double sc_soc, double ba_soc,
                         double load_w) const
{
    // Estimator tick (s).
    constexpr double kEstimateTickSeconds = 5.0;
    RideThroughParams rt;
    rt.rLambda = r_lambda;
    rt.tickSeconds = kEstimateTickSeconds;
    rt.horizonSeconds = params_.horizonSeconds;
    return estimateRideThrough(scFactory_, baFactory_, sc_soc, ba_soc,
                               load_w, rt);
}

SlotPlan
DegradationPolicy::adapt(SlotPlan plan, const SlotSensors &sensors)
{
    // Mismatch (W) below which the policy does not intervene.
    constexpr double kMinMismatchW = 1.0;
    // The load the bank must carry if the coming slot looks like the
    // scheme predicted — or, with no usable prediction, like the slot
    // that just ended.
    double load_w = plan.predictedMismatchW;
    if (load_w < kMinMismatchW)
        load_w =
            std::max(0.0, sensors.lastSlotPeakW - sensors.budgetW);
    if (load_w < kMinMismatchW) {
        lastAction_ = DegradationAction::None;
        ++untouched_;
        return plan;
    }

    double sc_soc = socFromUsableWh(scFactory_, sensors.scUsableWh);
    double ba_soc = socFromUsableWh(baFactory_, sensors.baUsableWh);

    RideThroughEstimate planned =
        probe(plan.rLambda, sc_soc, ba_soc, load_w);
    if (planned.seconds >= params_.minRideThroughSeconds) {
        lastAction_ = DegradationAction::None;
        ++untouched_;
        return plan;
    }

    // Fallback ladder: even rebalance, then each single branch. The
    // first candidate that rides through wins; candidates run with
    // plain proportional dispatch (no battery-base split) because the
    // base plan assumed the bank the scheme believed in.
    struct Candidate
    {
        double rLambda;
        DegradationAction action;
    };
    const Candidate candidates[] = {
        {0.5, DegradationAction::Rebalanced},
        {0.0, DegradationAction::BatteryOnly},
        {1.0, DegradationAction::ScOnly},
    };

    double best_seconds = planned.seconds;
    double best_r = plan.rLambda;
    for (const Candidate &c : candidates) {
        RideThroughEstimate est = probe(c.rLambda, sc_soc, ba_soc,
                                        load_w);
        if (est.seconds >= params_.minRideThroughSeconds) {
            plan.rLambda = c.rLambda;
            plan.batteryBasePlanW = -1.0;
            lastAction_ = c.action;
            if (c.action == DegradationAction::Rebalanced)
                ++rebalanced_;
            else
                ++singleBranch_;
            obs::MetricsRegistry::global()
                .counter("core.degradation_fallbacks_total")
                .inc();
            return plan;
        }
        if (est.seconds > best_seconds) {
            best_seconds = est.seconds;
            best_r = c.rLambda;
        }
    }

    // Nothing survives at full load: run the best split and shed the
    // fraction of servers the ride-through deficit implies. seconds
    // scales roughly inversely with load, so serving
    // best/minRideThrough of the load stretches the estimate to the
    // target.
    plan.rLambda = best_r;
    plan.batteryBasePlanW = -1.0;
    plan.shedFraction = std::clamp(
        1.0 - best_seconds / params_.minRideThroughSeconds, 0.0, 1.0);
    lastAction_ = DegradationAction::Shed;
    ++shed_;
    obs::MetricsRegistry::global()
        .counter("core.degradation_shed_slots_total")
        .inc();
    return plan;
}

} // namespace heb
