#include "core/ride_through.h"

#include <functional>
#include <memory>

#include "core/load_assignment.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace heb {

RideThroughEstimate
estimateRideThrough(
    const std::function<std::unique_ptr<EnergyStorageDevice>()>
        &sc_factory,
    const std::function<std::unique_ptr<EnergyStorageDevice>()>
        &ba_factory,
    double sc_soc, double ba_soc, double load_w,
    RideThroughParams params)
{
    if (!sc_factory || !ba_factory)
        fatal("estimateRideThrough: factories required");
    if (load_w <= 0.0)
        return {params.horizonSeconds, true};

    auto sc = sc_factory();
    auto ba = ba_factory();
    sc->setSoc(sc_soc);
    ba->setSoc(ba_soc);

    // Load shortfall that ends the ride-through (W).
    constexpr double kShortfallToleranceW = 1.0;
    double t = 0.0;
    RideThroughEstimate estimate{params.horizonSeconds, true};
    {
        HEB_PROF_SCOPE("core.ride_through");
        while (t < params.horizonSeconds) {
            DispatchResult res =
                dispatchMismatch(*sc, *ba, load_w, params.rLambda,
                                 params.tickSeconds, load_w);
            if (res.unservedW > kShortfallToleranceW) {
                estimate.seconds = t;
                estimate.survivedHorizon = false;
                break;
            }
            t += params.tickSeconds;
        }
    }

    obs::MetricsRegistry::global()
        .counter("core.ridethrough_estimates_total")
        .inc();
    if (auto *tr = obs::activeTrace()) {
        tr->record(obs::TraceEventKind::RideThrough, 0.0,
                   {load_w, estimate.seconds, sc_soc, ba_soc});
    }
    return estimate;
}

double
estimateRideThroughSeconds(
    const std::function<std::unique_ptr<EnergyStorageDevice>()>
        &sc_factory,
    const std::function<std::unique_ptr<EnergyStorageDevice>()>
        &ba_factory,
    double sc_soc, double ba_soc, double load_w,
    RideThroughParams params)
{
    return estimateRideThrough(sc_factory, ba_factory, sc_soc, ba_soc,
                               load_w, params)
        .seconds;
}

} // namespace heb
