#include "sim/rack_domain.h"

#include <algorithm>
#include <cmath>

#include "core/load_assignment.h"
#include "esd/bank_builder.h"
#include "esd/battery.h"
#include "esd/lifetime_model.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/units.h"

namespace heb {

/** Simulation-layer telemetry handles, registered on first use. */
struct RackDomain::Metrics
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    obs::Counter &ticks = reg.counter("sim.ticks_total");
    obs::Counter &mismatchTicks =
        reg.counter("sim.mismatch_ticks_total");
    obs::Counter &unservedWh = reg.counter("sim.unserved_wh");
    obs::Counter &shedServers =
        reg.counter("sim.servers_shed_total");
    obs::Counter &restarts =
        reg.counter("sim.server_restarts_total");
    obs::Counter &faultEvents =
        reg.counter("sim.fault_events_total");
    obs::Counter &gracefulSheds =
        reg.counter("sim.graceful_sheds_total");
    obs::Counter &shortfallTicks =
        reg.counter("sim.shortfall_ticks_total");
    obs::Histogram &demandW = reg.histogram("sim.demand_w");
    obs::Histogram &sourceDrawW =
        reg.histogram("sim.source_draw_w");
    obs::Gauge &scSoc = reg.gauge("sim.sc_soc");
    obs::Gauge &baSoc = reg.gauge("sim.ba_soc");
    obs::Gauge &scTerminalV = reg.gauge("sim.sc_terminal_v");
    obs::Gauge &baTerminalV = reg.gauge("sim.ba_terminal_v");

    static Metrics &
    get()
    {
        static Metrics metrics;
        return metrics;
    }
};

namespace {

std::unique_ptr<EsdPool>
buildScBank(const SimConfig &config, bool hybrid)
{
    return makeScBank(hybrid ? config.scEnergyWh : 1e-3,
                      config.scDod, 2);
}

std::unique_ptr<EsdPool>
buildBaBank(const SimConfig &config, bool hybrid)
{
    double wh =
        hybrid ? config.baEnergyWh : config.totalBufferWh();
    return makeBatteryBank(wh, config.baDod, 2,
                           config.batteryAging);
}

} // namespace

RackDomain::RackDomain(const SimConfig &config,
                       const Workload &workload,
                       ManagementScheme &scheme, std::string name,
                       const fault::FaultPlan *shared_plan)
    : config_(config), workload_(workload), name_(std::move(name)),
      hybrid_(scheme.usesHybridBuffers()),
      nominalFrequency_(workload.peakClass() == PeakClass::Small
                            ? Cluster::Frequency::Low
                            : Cluster::Frequency::High),
      scBank_(buildScBank(config, hybrid_)),
      baBank_(buildBaBank(config, hybrid_)),
      cluster_(config.numServers, config.serverParams),
      topology_(config.topology, config.deployment,
                std::max(1000.0, cluster_.nameplatePeakW())),
      controller_(scheme, *scBank_, *baBank_, config.slotSeconds),
      switches_(config.numServers),
      util_(config.numServers, 0.0),
      demandSeries_(config.tickSeconds),
      supplySeries_(config.tickSeconds),
      unservedSeries_(config.tickSeconds),
      scSocSeries_(config.slotSeconds),
      baSocSeries_(config.slotSeconds),
      rLambdaSeries_(config.slotSeconds)
{
    cluster_.setFrequency(nominalFrequency_);
    if (config_.sensorNoiseSigma > 0.0) {
        controller_.setSensorNoise(config_.sensorNoiseSigma,
                                   config_.seed ^ 0x5eb5eb5eULL);
    }
    if (config_.faultInjection) {
        injector_ = std::make_unique<fault::FaultInjector>(
            shared_plan
                ? *shared_plan
                : fault::FaultPlan::generate(config_.faultPlan,
                                             config_.durationSeconds,
                                             config_.faultSeed),
            config_.faultSeed);
    }
    if (config_.degradationPolicy) {
        // The estimator's probe devices are factory-fresh copies of
        // this domain's banks; the sensed SoCs carry the fault state.
        SimConfig cfg = config_;
        bool hybrid = hybrid_;
        DegradationPolicyParams dp;
        dp.minRideThroughSeconds = config_.slotSeconds;
        dp.horizonSeconds = 2.0 * config_.slotSeconds;
        degradation_ = std::make_unique<DegradationPolicy>(
            [cfg, hybrid]() -> std::unique_ptr<EnergyStorageDevice> {
                return buildScBank(cfg, hybrid);
            },
            [cfg, hybrid]() -> std::unique_ptr<EnergyStorageDevice> {
                return buildBaBank(cfg, hybrid);
            },
            dp);
        controller_.setDegradationPolicy(degradation_.get());
    }
    // Size the per-tick series once: grown by doubling, they leave
    // heap holes that a sweep's retained results cannot reuse.
    if (config_.recordSeries) {
        auto ticks = static_cast<std::size_t>(
            std::ceil(config_.durationSeconds / config_.tickSeconds));
        demandSeries_.reserve(ticks);
        supplySeries_.reserve(ticks);
        unservedSeries_.reserve(ticks);
    }
    scStartWh_ = scBank_->usableEnergyWh();
    baStartWh_ = baBank_->usableEnergyWh();
}

void
RackDomain::applyFaultEvent(const fault::FaultEvent &event,
                            double now_seconds)
{
    using fault::FaultKind;
    switch (event.kind) {
      case FaultKind::BatteryWeakCell:
        if (baBank_->deviceCount() > 0) {
            baBank_->device(event.target % baBank_->deviceCount())
                .applyHealthDerate(event.magnitude, event.secondary);
        }
        break;
      case FaultKind::ScEsrAging:
        scBank_->applyHealthDerate(1.0, event.magnitude);
        break;
      case FaultKind::ConverterTrip:
        topology_.tripBufferStage(now_seconds,
                                  event.durationSeconds);
        break;
      case FaultKind::AtsTransferFailure:
      case FaultKind::SensorDropout:
      case FaultKind::SensorJitter:
        // ATS gaps cut the upstream supply (the fleet's facility
        // feed holds them as grid outage windows); sensor faults act
        // through filterTelemetry().
        // Logged here so the fault log is complete in one place.
        break;
    }
    ++faultsApplied_;
    ++faultsByKind_[static_cast<std::size_t>(event.kind)];
    faultLog_.push_back(event.describe());
    if (obs::TraceRecorder *tr = obs::activeTrace()) {
        tr->record(obs::TraceEventKind::Fault, now_seconds,
                   {static_cast<double>(event.kind), 1.0,
                    event.magnitude, event.durationSeconds,
                    static_cast<double>(event.target)});
    }
}

std::size_t
RackDomain::offlineServers() const
{
    return config_.numServers - cluster_.onlineCount();
}

double
RackDomain::softCapW(double supply_w) const
{
    // Demand-charge management: an *economic* soft cap below the
    // physical budget (paper §7.6).
    if (config_.peakShavingTargetW > 0.0)
        return std::min(supply_w, config_.peakShavingTargetW);
    return supply_w;
}

std::size_t
RackDomain::plannedShed(const SlotPlan &plan) const
{
    return std::min(
        config_.numServers,
        static_cast<std::size_t>(std::ceil(
            plan.shedFraction * static_cast<double>(config_.numServers) -
            1e-9)));
}

double
RackDomain::computeDemand(double now_seconds)
{
    HEB_PROF_SCOPE("dc.demand");
    workload_.utilizations(now_seconds, util_, utilCache_);
    cachedDemand_ = cluster_.demandW(util_, now_seconds);
    return cachedDemand_;
}

RackDomain::TickOutcome
RackDomain::tick(double now_seconds, double supply_w)
{
    HEB_PROF_SCOPE("sim.tick");
    obs::ScopedTraceTrack track(traceTrack_);
    const double dt = config_.tickSeconds;
    const double dt_h = secondsToHours(dt);
    const double now = now_seconds;
    double demand = cachedDemand_;

    // One telemetry lookup per tick: the metrics singleton and the
    // trace pointer are loop-invariant for the whole run, so the
    // atomic load + static-init guard are paid once here instead of
    // at every instrumentation site below. `metrics` is null when
    // telemetry is off (every update site is skipped); `tr` is null
    // unless tracing is Full with a recorder installed.
    Metrics *metrics = obs::metricsOn() ? &Metrics::get() : nullptr;
    obs::TraceRecorder *tr = obs::activeTrace();

    // Fault onset: apply every scheduled event whose time arrived.
    if (injector_) {
        injector_->poll(now,
                        [this, now, metrics](
                            const fault::FaultEvent &ev) {
                            applyFaultEvent(ev, now);
                            if (metrics)
                                metrics->faultEvents.inc();
                        });
    }

    // Optional DVFS capping before touching buffers (paper §1).
    if (config_.dvfsCapping) {
        bool throttled = demand > supply_w &&
                         nominalFrequency_ == Cluster::Frequency::High;
        cluster_.setFrequency(throttled ? Cluster::Frequency::Low
                                        : nominalFrequency_);
        if (throttled) {
            demand = cluster_.totalPowerW(util_, now);
            perfDegradation_ +=
                static_cast<double>(cluster_.onlineCount()) * dt;
        }
    }

    // The controller sees what the (possibly faulted) IPDU sensors
    // report, not ground truth; physical dispatch below always uses
    // the true demand.
    double measured_demand =
        injector_ ? injector_->filterTelemetry(now, demand) : demand;
    const SlotPlan &plan =
        controller_.tick(now, measured_demand, supply_w);

    // Graceful degradation: honour the slot plan's shed request by
    // taking servers offline *deliberately* before dispatch, so the
    // survivors ride through instead of the whole branch browning
    // out.
    plannedOffline_ = plannedShed(plan);
    if (plannedOffline_ > offlineServers()) {
        std::size_t to_shed = plannedOffline_ - offlineServers();
        cluster_.shutdownLru(to_shed, now);
        gracefulShedEvents_ += to_shed;
        if (metrics) {
            metrics->gracefulSheds.add(
                static_cast<double>(to_shed));
        }
        demand = cluster_.totalPowerW(util_, now);
    }

    // Relay actuation.
    bool in_mismatch = demand > supply_w;
    std::size_t on_sc =
        serversOnSc(plan.rLambda, config_.numServers);
    for (std::size_t s = 0; s < config_.numServers; ++s) {
        SwitchFeed feed = SwitchFeed::Utility;
        if (in_mismatch)
            feed = s < on_sc ? SwitchFeed::Supercap
                             : SwitchFeed::Battery;
        switches_[s].command(feed);
    }

    TickOutcome outcome;
    outcome.demandW = demand;
    double unserved = 0.0;
    double source_draw = 0.0;

    // Buffer terminal power this tick, positive when discharging to
    // the load and negative when absorbing surplus (telemetry only).
    double sc_w = 0.0;
    double ba_w = 0.0;

    // The buffers shave draw above the soft cap; anything they
    // cannot cover backfills from the real budget instead of
    // shedding servers (availability beats tariff savings).
    const double soft_cap = softCapW(supply_w);

    // A tripped buffer-path converter takes the banks out of the
    // circuit entirely: no discharge, no charge, until it restarts.
    bool buffer_up = topology_.bufferStageAvailable(now);

    if (demand > soft_cap) {
        double mismatch = demand - soft_cap;
        double eff_d = topology_.bufferPathEfficiency(mismatch);
        double needed = mismatch / eff_d;

        DispatchResult res;
        if (!buffer_up) {
            scBank_->rest(dt);
            baBank_->rest(dt);
            res.unservedW = needed;
        } else if (hybrid_) {
            res = dispatchMismatch(*scBank_, *baBank_, needed,
                                   plan.rLambda, dt,
                                   plan.batteryBasePlanW);
        } else {
            res.baPowerW = baBank_->discharge(needed, dt);
            scBank_->rest(dt);
            res.unservedW = std::max(0.0, needed - res.baPowerW);
        }
        sc_w = res.scPowerW;
        ba_w = res.baPowerW;
        double delivered_wall = res.totalW() * eff_d;
        unserved = std::max(0.0, mismatch - delivered_wall);

        // Backfill a shortfall from the headroom between the soft
        // cap and the physical budget before counting it unserved.
        double backfill =
            std::min(unserved, std::max(0.0, supply_w - soft_cap));
        unserved -= backfill;

        ledger_.scToLoadWh += res.scPowerW * eff_d * dt_h;
        ledger_.batteryToLoadWh += res.baPowerW * eff_d * dt_h;
        ledger_.dischargeConversionLossWh +=
            res.totalW() * (1.0 - eff_d) * dt_h;
        ledger_.sourceToLoadWh +=
            (std::min(soft_cap, demand) + backfill) * dt_h;
        source_draw = std::min(soft_cap, demand) + backfill;

        if (unserved > config_.shedToleranceW &&
            cluster_.onlineCount() > 0) {
            double per_server = std::max(
                1.0,
                demand / static_cast<double>(std::max<std::size_t>(
                             1, cluster_.onlineCount())));
            auto shed = static_cast<std::size_t>(
                std::ceil(unserved / per_server));
            cluster_.shutdownLru(shed, now);
            // Uncontrolled shedding is the voltage-sag server crash
            // of paper Fig. 5 — the availability event the graceful
            // policy exists to avoid.
            crashEvents_ += shed;
            if (metrics)
                metrics->shedServers.add(static_cast<double>(shed));
            if (tr) {
                tr->record(
                    obs::TraceEventKind::Shed, now,
                    {unserved, static_cast<double>(shed),
                     static_cast<double>(cluster_.onlineCount())});
            }
        }
    } else {
        ledger_.sourceToLoadWh += demand * dt_h;

        // Charging may use headroom up to the soft cap only, so the
        // recharge itself does not set a new billed peak.
        double surplus = soft_cap - demand;
        double eff_c = topology_.chargePathEfficiency(surplus);
        ChargeResult charged;
        source_draw = demand + chargeStep(buffer_up, surplus, eff_c,
                                          plan.chargeScFirst, charged);
        sc_w = -charged.scPowerW;
        ba_w = -charged.baPowerW;

        if (config_.restartOnRecovery &&
            cluster_.onlineCount() + plannedOffline_ <
                config_.numServers &&
            now - lastRestart_ > 300.0 &&
            surplus > config_.serverParams.peakPowerW) {
            if (cluster_.powerOnFirstOffline(now)) {
                lastRestart_ = now;
                if (metrics)
                    metrics->restarts.inc();
                if (tr) {
                    tr->record(obs::TraceEventKind::Restart, now,
                               {static_cast<double>(
                                   cluster_.onlineCount())});
                }
            }
        }
    }

    cluster_.accrueDowntime(dt);

    ledger_.unservedWh += unserved * dt_h;
    if (unserved > 1e-9) {
        ++shortfallTicks_;
        if (metrics)
            metrics->shortfallTicks.inc();
    }
    recordTick(demand, supply_w, unserved, source_draw, metrics);
    if (metrics && in_mismatch)
        metrics->mismatchTicks.inc();
    if (tr && tickIndex_ % tr->tickStride() == 0) {
        tr->record(obs::TraceEventKind::Tick, now,
                   {demand, supply_w, sc_w, ba_w, unserved,
                    source_draw});
    }
    ++tickIndex_;

    if (now >= nextSocSample_) {
        double sc_soc = scBank_->soc();
        double ba_soc = baBank_->soc();
        scSocSeries_.append(sc_soc);
        baSocSeries_.append(ba_soc);
        rLambdaSeries_.append(plan.rLambda);
        nextSocSample_ += config_.slotSeconds;

        if (metrics) {
            metrics->scSoc.set(sc_soc);
            metrics->baSoc.set(ba_soc);
            // Terminal voltage under the tick's discharge load shows
            // sag (Fig. 5); charging ticks sample at open circuit.
            metrics->scTerminalV.set(
                scBank_->terminalVoltage(std::max(0.0, sc_w)));
            metrics->baTerminalV.set(
                baBank_->terminalVoltage(std::max(0.0, ba_w)));
        }
        if (tr) {
            tr->record(
                obs::TraceEventKind::SocSample, now,
                {sc_soc, ba_soc,
                 scBank_->terminalVoltage(std::max(0.0, sc_w)),
                 baBank_->terminalVoltage(std::max(0.0, ba_w)),
                 plan.rLambda});
        }
    }

    outcome.sourceDrawW = source_draw;
    outcome.unservedW = unserved;
    return outcome;
}

double
RackDomain::nextEventHorizon(double now_seconds) const
{
    // Workload change-point first: a "no guarantee" answer (<= now)
    // vetoes fast-forward outright.
    double h =
        workload_.nextChangeTime(now_seconds, config_.numServers);
    if (h <= now_seconds)
        return now_seconds;
    if (injector_) {
        h = std::min(h,
                     injector_->plan().nextEventAfter(now_seconds));
    }
    h = std::min(h, controller_.nextSlotBoundary());
    h = std::min(h, nextSocSample_);
    double restore = topology_.bufferStageRestoreTime();
    if (restore > now_seconds)
        h = std::min(h, restore);
    return h;
}

bool
RackDomain::fastForwardCheck(std::size_t n_ticks, double supply_w)
{
    HEB_PROF_SCOPE("sim.fast_forward_check");
    obs::ScopedTraceTrack track(traceTrack_);
    const double dt = config_.tickSeconds;
    const std::size_t n = n_ticks;
    ffPlan_ = nullptr;
    if (n == 0)
        return false;
    // Tick times use the same FP product as the dense loop's `now`,
    // so state stamped with a time gets identical bits.
    const double t1 = static_cast<double>(tickIndex_) * dt;
    const double t_last =
        static_cast<double>(tickIndex_ + n - 1) * dt;

    // ---- Quiescence predicate -----------------------------------
    // Every check mirrors a branch the dense tick would take; any
    // failure returns false with the domain exactly as the next
    // dense tick expects (the mutations below are idempotent re-runs
    // of what that tick will do itself). Every check before
    // computeDemand is a pure read, so the per-rack ones go first
    // (two O(1) checks, then the jitter window's scan of the fault
    // plan) and the per-server scan runs only when they all pass.
    if (cluster_.onlineCount() != config_.numServers)
        return false;
    // Re-verify the exact dense rollover predicate at the endpoint:
    // `now - slotStart >= slotSeconds` is monotone in now, so the
    // last tick failing it means every tick fails it.
    if (t_last - controller_.slotStartSeconds() >=
        controller_.slotSeconds()) {
        return false;
    }
    // A jitter window advances the telemetry RNG every tick; the
    // horizon keeps window edges out of the interval, so one check
    // at t1 covers it.
    if (injector_ && injector_->sensorJitterMagnitude(t1) > 0.0)
        return false;
    for (std::size_t s = 0; s < config_.numServers; ++s) {
        if (!cluster_.isUp(s, t1) ||
            cluster_.frequency(s) != nominalFrequency_)
            return false;
    }

    double demand = computeDemand(t1);
    if (demand > softCapW(supply_w))
        return false;

    double measured = injector_
                          ? injector_->filterTelemetry(t1, demand)
                          : demand;
    const SlotPlan &plan =
        controller_.tick(t1, measured, supply_w);
    if (plannedShed(plan) != 0)
        return false;

    // Endpoint guard: the workload promised bitwise constancy up to
    // the horizon; verify it at the far end. Utilization profiles
    // change phase at most once inside a wrongly-computed horizon,
    // so equal endpoints imply equal interiors.
    for (std::size_t s = 0; s < config_.numServers; ++s) {
        if (workload_.utilization(s, t_last) != util_[s])
            return false;
    }

    ffPlan_ = &plan;
    return true;
}

bool
RackDomain::fastForwardCommit(std::size_t n_ticks, double supply_w,
                              std::span<double> draws)
{
    HEB_PROF_SCOPE("sim.fast_forward");
    obs::ScopedTraceTrack track(traceTrack_);
    if (!ffPlan_)
        fatal("fastForwardCommit without a passing fastForwardCheck");
    const SlotPlan &plan = *ffPlan_;
    ffPlan_ = nullptr;
    const double dt = config_.tickSeconds;
    const double dt_h = secondsToHours(dt);
    const std::size_t n = n_ticks;
    const double t1 = static_cast<double>(tickIndex_) * dt;
    const double t_last =
        static_cast<double>(tickIndex_ + n - 1) * dt;
    const double demand = cachedDemand_;

    // ---- Quiescent kernel ---------------------------------------
    // One relay command replicates n same-feed commands (later ones
    // are no-ops).
    for (std::size_t s = 0; s < config_.numServers; ++s)
        switches_[s].command(SwitchFeed::Utility);

    const bool buffer_up = topology_.bufferStageAvailable(t1);
    const double surplus = softCapW(supply_w) - demand;
    const double eff_c = topology_.chargePathEfficiency(surplus);

    Metrics *metrics = obs::metricsOn() ? &Metrics::get() : nullptr;
    obs::TraceRecorder *tr = obs::activeTrace();

    double interval_source_wh = 0.0;
    double interval_sc_wh = 0.0;
    double interval_ba_wh = 0.0;

    const bool banks_idle = !buffer_up || surplus * eff_c <= 0.0;
    if (banks_idle) {
        // Banks idle the whole interval — tripped converter, or a
        // charge dispatch with nothing to push (dispatchCharge with a
        // non-positive target rests both banks and every charge-side
        // ledger add is += 0.0, a bitwise no-op on the non-negative
        // accumulators). The devices advance their dynamics in one
        // macro call.
        scBank_->advanceQuiescent(n, dt);
        baBank_->advanceQuiescent(n, dt);
    }
    for (std::size_t j = 0; j < n; ++j) {
        ledger_.sourceToLoadWh += demand * dt_h;
        double source_draw = demand;
        if (!banks_idle) {
            // Charge taper varies tick to tick, so dispatch stays
            // per-tick — it is the whole macro-tick body.
            ChargeResult charged;
            source_draw += chargeStep(true, surplus, eff_c,
                                      plan.chargeScFirst, charged);
            interval_sc_wh += charged.scPowerW * dt_h;
            interval_ba_wh += charged.baPowerW * dt_h;
        }
        recordTick(demand, supply_w, 0.0, source_draw, metrics);
        draws[j] = source_draw;
        interval_source_wh += source_draw * dt_h;
    }

    // LRU bookkeeping: the last activity record wins, so one demand
    // pass at the interval end replicates n per-tick ones.
    (void)cluster_.demandW(util_, t_last);
    plannedOffline_ = 0;
    tickIndex_ += n;

    if (tr) {
        tr->record(obs::TraceEventKind::Quiescent, t1,
                   {static_cast<double>(n), demand, supply_w,
                    interval_source_wh, interval_sc_wh,
                    interval_ba_wh});
    }
    return banks_idle;
}

double
RackDomain::chargeStep(bool buffer_up, double surplus, double eff_c,
                       bool sc_first, ChargeResult &charged)
{
    const double target_w = surplus * eff_c;
    const double dt = config_.tickSeconds;
    const double dt_h = secondsToHours(dt);
    if (!buffer_up) {
        scBank_->rest(dt);
        baBank_->rest(dt);
    } else if (hybrid_) {
        charged = dispatchCharge(*scBank_, *baBank_, target_w,
                                 sc_first, dt);
    } else {
        charged.baPowerW = baBank_->charge(target_w, dt);
        scBank_->rest(dt);
    }
    ledger_.sourceToScWh += charged.scPowerW * dt_h;
    ledger_.sourceToBatteryWh += charged.baPowerW * dt_h;
    double charge_draw = eff_c > 0.0 ? charged.totalW() / eff_c : 0.0;
    ledger_.chargeConversionLossWh += charge_draw * (1.0 - eff_c) * dt_h;
    return charge_draw;
}

void
RackDomain::recordTick(double demand, double supply_w, double unserved,
                       double source_draw, Metrics *metrics)
{
    peakDrawW_ = std::max(peakDrawW_, source_draw);
    if (config_.recordSeries) {
        demandSeries_.append(demand);
        supplySeries_.append(supply_w);
        unservedSeries_.append(unserved);
    }
    if (metrics) {
        metrics->ticks.inc();
        metrics->unservedWh.add(unserved *
                                secondsToHours(config_.tickSeconds));
        metrics->demandW.record(demand);
        metrics->sourceDrawW.record(source_draw);
    }
}

void
RackDomain::finalize(SimResult &result) const
{
    result.durationSeconds =
        config_.recordSeries
            ? demandSeries_.duration()
            : static_cast<double>(tickIndex_) * config_.tickSeconds;
    result.ledger = ledger_;
    result.ledger.bootWasteWh = cluster_.totalBootEnergyWh();
    result.downtimeSeconds = cluster_.totalDowntimeSeconds();
    result.serverOnOffCycles = cluster_.totalOnOffCycles();
    result.completedSlots = controller_.completedSlots();
    result.perfDegradationServerSeconds = perfDegradation_;
    result.peakUtilityDrawW = peakDrawW_;
    result.energyNotServedWh = ledger_.unservedWh;
    result.shortfallTicks = shortfallTicks_;
    result.serverCrashEvents = crashEvents_;
    result.gracefulShedEvents = gracefulShedEvents_;
    result.faultEventsApplied = faultsApplied_;
    result.faultEventsByKind.assign(faultsByKind_.begin(),
                                    faultsByKind_.end());
    result.faultLog = faultLog_;
    if (degradation_) {
        result.degradationActions = degradation_->rebalancedSlots() +
                                    degradation_->singleBranchSlots() +
                                    degradation_->shedSlots();
    }
    result.demandW = demandSeries_;
    result.supplyW = supplySeries_;
    result.unservedW = unservedSeries_;
    result.scSoc = scSocSeries_;
    result.baSoc = baSocSeries_;
    result.rLambdaPerSlot = rLambdaSeries_;

    for (const PowerSwitch &sw : switches_) {
        result.switchActuations += sw.actuations();
        result.switchWearFraction =
            std::max(result.switchWearFraction, sw.wearFraction());
    }

    const EsdCounters &scc = scBank_->counters();
    const EsdCounters &bac = baBank_->counters();
    double out_wh = scc.dischargeEnergyWh + bac.dischargeEnergyWh;
    double in_wh = scc.chargeEnergyWh + bac.chargeEnergyWh;
    double delta_stored =
        (scBank_->usableEnergyWh() + baBank_->usableEnergyWh()) -
        (scStartWh_ + baStartWh_);
    double denom = in_wh - delta_stored;
    result.energyEfficiency =
        (denom > 1e-9 && out_wh > 0.0)
            ? std::clamp(out_wh / denom, 0.0, 1.0)
            : 1.0;

    double invested = result.ledger.sourceToBuffersWh() +
                      result.ledger.chargeConversionLossWh +
                      result.ledger.bootWasteWh - delta_stored;
    result.effectiveEfficiency =
        (invested > 1e-9 && result.ledger.bufferToLoadWh() > 0.0)
            ? std::clamp(result.ledger.bufferToLoadWh() / invested,
                         0.0, 1.0)
            : 1.0;

    result.batteryWeightedAh = 0.0;
    double rated_ah = 0.0;
    for (std::size_t i = 0; i < baBank_->deviceCount(); ++i) {
        const auto *b =
            dynamic_cast<const Battery *>(&baBank_->device(i));
        if (b) {
            result.batteryWeightedAh += b->weightedThroughputAh();
            rated_ah += b->params().ratedThroughputAh();
        }
    }
    result.batteryDischargeAh = bac.dischargeAh;
    result.scDischargeAh = scc.dischargeAh;

    LifetimeModelParams lp;
    lp.ratedThroughputAh = rated_ah;
    AhThroughputLifetimeModel lifetime(lp);
    result.batteryLifetimeYears = lifetime.estimateLifetimeYears(
        result.batteryWeightedAh, result.durationSeconds);
}

} // namespace heb
