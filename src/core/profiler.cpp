#include "core/profiler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "core/load_assignment.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/logging.h"

namespace heb {

BufferProfiler::BufferProfiler(EsdFactory sc_factory,
                               EsdFactory ba_factory,
                               ProfilerConfig config)
    : scFactory_(std::move(sc_factory)),
      baFactory_(std::move(ba_factory)), config_(config)
{
    if (!scFactory_ || !baFactory_)
        fatal("BufferProfiler needs both factories");
    if (config_.ratioSteps < 2)
        fatal("BufferProfiler needs at least two candidate ratios");
    // Both race loops advance by tickSeconds: zero would never end.
    if (!std::isfinite(config_.tickSeconds) || config_.tickSeconds <= 0.0)
        fatal("BufferProfiler tickSeconds must be positive and finite");
    const std::pair<const char *, double> lengths[] = {
        {"peakDurationS", config_.peakDurationS},
        {"valleyDurationS", config_.valleyDurationS},
        {"horizonSeconds", config_.horizonSeconds}};
    for (const auto &[name, value] : lengths) {
        if (!std::isfinite(value) || value < 0.0)
            fatal("BufferProfiler ", name,
                  " must be finite and non-negative");
    }
    if (!std::isfinite(config_.valleyChargeW))
        fatal("BufferProfiler valleyChargeW must be finite");
}

double
BufferProfiler::dischargeRuntime(double sc_soc, double ba_soc,
                                 double mismatch_w,
                                 double r_lambda) const
{
    HEB_PROF_SCOPE("core.profiler.race");
    obs::MetricsRegistry::global()
        .counter("core.profiler_races_total")
        .inc();
    auto sc = scFactory_();
    auto ba = baFactory_();
    sc->setSoc(sc_soc);
    ba->setSoc(ba_soc);

    // The paper's Fig. 6 protocol: each branch carries exactly its
    // assigned share; only when one device is *depleted* does the
    // other take over the entire load. (No per-tick rate spillover —
    // that is the deployed dispatch, not the characterization rig.)
    double dt = config_.tickSeconds;
    double t = 0.0;
    while (t < config_.horizonSeconds) {
        bool sc_dead = sc->depleted(dt);
        bool ba_dead = ba->depleted(dt);
        double sc_target, ba_target;
        if (sc_dead && !ba_dead) {
            sc_target = 0.0;
            ba_target = mismatch_w;
        } else if (ba_dead && !sc_dead) {
            sc_target = mismatch_w;
            ba_target = 0.0;
        } else {
            sc_target = mismatch_w * r_lambda;
            ba_target = mismatch_w - sc_target;
        }
        double got = 0.0;
        got += sc_target > 0.0 ? sc->discharge(sc_target, dt) : 0.0;
        if (sc_target <= 0.0)
            sc->rest(dt);
        got += ba_target > 0.0 ? ba->discharge(ba_target, dt) : 0.0;
        if (ba_target <= 0.0)
            ba->rest(dt);
        if (mismatch_w - got > config_.unservedToleranceW)
            return t;
        t += dt;
    }
    return config_.horizonSeconds;
}

RuntimeProfile
BufferProfiler::profileScenario(double sc_soc, double ba_soc,
                                double mismatch_w) const
{
    RuntimeProfile profile;
    for (std::size_t i = 0; i < config_.ratioSteps; ++i) {
        double r = static_cast<double>(i) /
                   static_cast<double>(config_.ratioSteps - 1);
        profile.ratios.push_back(r);
        profile.runtimeSeconds.push_back(
            dischargeRuntime(sc_soc, ba_soc, mismatch_w, r));
    }
    profile.bestIndex = static_cast<std::size_t>(
        std::max_element(profile.runtimeSeconds.begin(),
                         profile.runtimeSeconds.end()) -
        profile.runtimeSeconds.begin());
    return profile;
}

double
BufferProfiler::cyclicUnservedWh(double sc_soc, double ba_soc,
                                 double mismatch_w,
                                 double r_lambda) const
{
    return boundedCyclicUnservedWh(
        sc_soc, ba_soc, mismatch_w, r_lambda,
        std::numeric_limits<double>::infinity());
}

double
BufferProfiler::boundedCyclicUnservedWh(double sc_soc, double ba_soc,
                                        double mismatch_w,
                                        double r_lambda,
                                        double stop_at_wh) const
{
    HEB_PROF_SCOPE("core.profiler.race");
    auto &metrics = obs::MetricsRegistry::global();
    metrics.counter("core.profiler_races_total").inc();

    double unserved_wh = 0.0;
    std::size_t ticks = 0;
    auto finish = [&](bool cut) {
        if (cut)
            metrics.counter("core.profiler_race_cutoffs_total").inc();
        metrics.counter("core.profiler_race_ticks_total")
            .add(static_cast<double>(ticks));
        return unserved_wh;
    };
    // The sum never decreases (every term is >= 0), so once it
    // reaches stop_at_wh the candidate cannot win; a mark that is not
    // positive is reached before the first tick.
    if (stop_at_wh <= 0.0)
        return finish(true);

    auto sc = scFactory_();
    auto ba = baFactory_();
    sc->setSoc(sc_soc);
    ba->setSoc(ba_soc);

    double dt = config_.tickSeconds;
    for (std::size_t c = 0; c < config_.cycles; ++c) {
        for (double t = 0.0; t < config_.peakDurationS; t += dt) {
            DispatchResult res =
                dispatchMismatch(*sc, *ba, mismatch_w, r_lambda, dt);
            unserved_wh += res.unservedW * dt / 3600.0;
            ++ticks;
            if (unserved_wh >= stop_at_wh)
                return finish(true);
        }
        // Only a later peak can see the valley's recharge.
        if (c + 1 == config_.cycles)
            break;
        for (double t = 0.0; t < config_.valleyDurationS; t += dt) {
            dispatchCharge(*sc, *ba, config_.valleyChargeW,
                           /*sc_first=*/true, dt);
            ++ticks;
        }
    }
    return finish(false);
}

double
BufferProfiler::bestCyclicRatio(double sc_soc, double ba_soc,
                                double mismatch_w) const
{
    double best_r = 1.0;
    double best_score = -1.0;
    for (std::size_t i = 0; i < config_.ratioSteps; ++i) {
        // Sweep from the SC side down so ties keep the SC-heavier
        // (cheaper-wear) candidate.
        double r = 1.0 - static_cast<double>(i) /
                             static_cast<double>(config_.ratioSteps - 1);
        // A candidate wins only below best_score - 1e-9, so its race
        // may stop once it reaches that mark.
        double stop_at_wh = best_score < 0.0
                                ? std::numeric_limits<double>::infinity()
                                : best_score - 1e-9;
        double score = boundedCyclicUnservedWh(sc_soc, ba_soc,
                                               mismatch_w, r, stop_at_wh);
        if (best_score < 0.0 || score < best_score - 1e-9) {
            best_score = score;
            best_r = r;
        }
    }
    return best_r;
}

void
BufferProfiler::seedTable(PowerAllocationTable &table,
                          const std::vector<double> &sc_socs,
                          const std::vector<double> &ba_socs,
                          const std::vector<double> &mismatch_watts) const
{
    auto self = std::make_shared<const BufferProfiler>(*this);
    for (double s : sc_socs) {
        for (double b : ba_socs) {
            for (double w : mismatch_watts) {
                auto sc = scFactory_();
                auto ba = baFactory_();
                sc->setSoc(s);
                ba->setSoc(b);
                table.seed(sc->usableEnergyWh(), ba->usableEnergyWh(), w,
                           [self, s, b, w] {
                               return self->bestCyclicRatio(s, b, w);
                           });
            }
        }
    }
}

} // namespace heb
