/**
 * @file
 * One self-contained HEB power domain: servers + hybrid banks +
 * relays + hControl, advanced tick by tick against an externally
 * supplied power budget.
 *
 * The FleetSimulator runs one or many domains side by side (the
 * paper's rack-level scale-out, Fig. 8c) with budget arbitration
 * between them; the single-rack Simulator is a one-domain fleet.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/load_assignment.h"
#include "core/degradation.h"
#include "core/scheme.h"
#include "dc/cluster.h"
#include "esd/esd_pool.h"
#include "fault/fault_injector.h"
#include "power/power_switch.h"
#include "power/topology.h"
#include "sim/sim_config.h"
#include "sim/sim_result.h"
#include "workload/workload.h"

namespace heb {

class CheckpointFields;

/** A rack-level power domain. */
class RackDomain
{
  public:
    /** Per-tick accounting returned to the caller. */
    struct TickOutcome
    {
        /** Wall demand this tick (W). */
        double demandW = 0.0;

        /** Power drawn from the upstream source (W). */
        double sourceDrawW = 0.0;

        /** Demand left unserved (W). */
        double unservedW = 0.0;
    };

    /**
     * @param config       Rig parameters (banks, servers, slot
     *                     length).
     * @param workload     Demand generator (not owned).
     * @param scheme       Management policy (not owned).
     * @param name         Domain label for logs/results.
     * @param shared_plan  Pre-generated fault plan to install
     *                     (copied) instead of regenerating it from
     *                     (faultPlan, duration, faultSeed); null
     *                     regenerates. Generation is pure, so both
     *                     paths yield the same schedule — sharing
     *                     just avoids redundant work when the caller
     *                     already built the plan (e.g. for the
     *                     feed's ATS outage windows).
     */
    RackDomain(const SimConfig &config, const Workload &workload,
               ManagementScheme &scheme, std::string name,
               const fault::FaultPlan *shared_plan = nullptr);

    /**
     * Compute (and cache) this tick's wall demand. Must be called
     * before tick() for the same timestamp; lets an arbitrator see
     * every domain's need before allocating supply.
     */
    double computeDemand(double now_seconds);

    /** Advance one tick with @p supply_w of budget available. */
    TickOutcome tick(double now_seconds, double supply_w);

    /**
     * Event-horizon query for the fast-forward engine: the earliest
     * time strictly after @p now_seconds at which this domain's tick
     * behaviour may change for reasons other than buffer dynamics —
     * a workload change-point, a fault-plan edge, the next control-
     * slot boundary, the next SoC sample, or a tripped converter's
     * restart. Returns @p now_seconds when no constancy guarantee
     * can be given (keeps the simulator dense).
     */
    double nextEventHorizon(double now_seconds) const;

    /**
     * Quiescence probe for the fleet's all-or-nothing macro-tick:
     * returns true when fastForwardCommit(@p n_ticks, @p supply_w)
     * can advance the next @p n_ticks ticks (all strictly before the
     * caller-computed event horizon, at @p supply_w of constant
     * budget) in one call. Every mutation it performs (demand
     * evaluation, controller tick at the span start) is an
     * idempotent re-run of what the next dense tick would do itself,
     * so declining — or probing and then never committing because a
     * *different* domain declined — leaves this domain exactly as
     * dense ticking expects.
     */
    bool fastForwardCheck(std::size_t n_ticks, double supply_w);

    /**
     * Commit the macro-tick vetted by the immediately preceding
     * fastForwardCheck(@p n_ticks, @p supply_w) call — no other
     * member function may run on this domain in between.
     *
     * The result is bit-identical to dense ticking by construction:
     * every floating-point operation that reaches SimResult (ledger
     * adds, series appends, ESD dispatch, peak tracking) is
     * performed per tick with the same operands and order as tick(),
     * and @p draws[j] receives tick j's upstream draw — the value
     * tick() returns as sourceDrawW — so the caller can re-sum the
     * facility draw per tick; only per-tick work whose
     * final state one call replicates (demand evaluation, controller
     * peak/valley, relay commands, LRU touch) is hoisted out of the
     * loop. Known divergence, by design: the trace gets one
     * summarized Quiescent record instead of stride-sampled Tick
     * records.
     *
     * @param draws  Caller-owned buffer of exactly @p n_ticks
     *               entries.
     * @return Whether the banks stayed idle for the whole span (the
     *         converter is tripped, or the frozen charge target is
     *         non-positive so every tick rests them).
     */
    bool fastForwardCommit(std::size_t n_ticks, double supply_w,
                           std::span<double> draws);

    /** Fill @p result with this domain's final metrics. */
    void finalize(SimResult &result) const;

    /** Domain label. */
    const std::string &name() const { return name_; }

    /** Usable SC energy right now (Wh). */
    double scUsableWh() const { return scBank_->usableEnergyWh(); }

    /** Usable battery energy right now (Wh). */
    double baUsableWh() const { return baBank_->usableEnergyWh(); }

    /** Servers currently shed (powered off). */
    std::size_t offlineServers() const;

    /** Per-server peak power (for restart headroom planning). */
    double serverPeakPowerW() const
    {
        return config_.serverParams.peakPowerW;
    }

    /** Installed fault injector, or null (tests / introspection). */
    const fault::FaultInjector *faultInjector() const
    {
        return injector_.get();
    }

    /**
     * Attribute this domain's trace events to @p track (the fleet
     * rack index). tick()/fastForward*() scope the thread-local
     * trace track to this value, so events recorded anywhere below
     * — controller, dispatch, fault edges — land on this rack's
     * timeline.
     */
    void setTraceTrack(std::uint16_t track) { traceTrack_ = track; }

    /** Supercap bank state of charge right now [0, 1]. */
    double scSoc() const { return scBank_->soc(); }

    /** Battery bank state of charge right now [0, 1]. */
    double baSoc() const { return baBank_->soc(); }

    /** Highest upstream draw seen so far (W). */
    double peakDrawW() const { return peakDrawW_; }

    /** True when the buffer-path converter is in circuit at @p now. */
    bool bufferStageUp(double now_seconds) const
    {
        return topology_.bufferStageAvailable(now_seconds);
    }

    /** Ticks advanced so far. */
    std::uint64_t ticksAdvanced() const { return tickIndex_; }

    /** Fault events applied so far, by FaultKind index. */
    const std::array<unsigned long, fault::kFaultKindCount> &
    faultEventsByKind() const
    {
        return faultsByKind_;
    }

    /**
     * Describe this domain's complete mutable state under @p prefix
     * to @p io, which saves it or loads it back into a domain built
     * from the identical config/workload/scheme. Call at a tick
     * boundary (between tick() or fastForwardCommit() calls); a save
     * mutates nothing, so a checkpointed run is tick-for-tick
     * identical to a plain one. A load fatal()s when the checkpoint's
     * shape does not match this domain (device, server and relay
     * counts, record widths, missing keys). Implemented in
     * checkpoint.cpp, which owns the key layout.
     */
    void checkpoint(CheckpointFields &io, const std::string &prefix);

  private:
    /** Apply one fault event whose onset was just reached. */
    void applyFaultEvent(const fault::FaultEvent &event,
                         double now_seconds);

    /** Draw the tick may take from @p supply_w: the peak-shaving
     *  target when one is set and lower. */
    double softCapW(double supply_w) const;

    /** Servers @p plan asks to shed deliberately. */
    std::size_t plannedShed(const SlotPlan &plan) const;

    /** Telemetry handles tick() and the macro-span kernel update. */
    struct Metrics;

    /**
     * One tick's charge side, shared by tick() and the macro-span
     * kernel: push @p surplus wall-side watts, times the charge-path
     * efficiency @p eff_c, into the banks (SC/battery split on a
     * hybrid rack, battery only otherwise; both rest when the buffer
     * stage is down), book the four charge-side ledger adds and
     * return the wall-side draw of the charge. @p charged receives
     * the banks' intake.
     */
    double chargeStep(bool buffer_up, double surplus, double eff_c,
                      bool sc_first, ChargeResult &charged);

    /** A tick's peak-draw, series and metrics bookkeeping. */
    void recordTick(double demand, double supply_w, double unserved,
                    double source_draw, Metrics *metrics);

    SimConfig config_;
    const Workload &workload_;
    std::string name_;
    bool hybrid_;
    /** DVFS level of the workload's peak class, outside capping. */
    Cluster::Frequency nominalFrequency_;

    std::unique_ptr<EsdPool> scBank_;
    std::unique_ptr<EsdPool> baBank_;
    Cluster cluster_;
    Topology topology_;
    HebController controller_;
    std::vector<PowerSwitch> switches_;
    std::unique_ptr<fault::FaultInjector> injector_;
    std::unique_ptr<DegradationPolicy> degradation_;

    std::vector<double> util_;
    UtilizationCache utilCache_; //!< derived; never checkpointed
    std::uint16_t traceTrack_ = 0;
    std::uint64_t tickIndex_ = 0;
    double cachedDemand_ = 0.0;
    const SlotPlan *ffPlan_ = nullptr; //!< set by fastForwardCheck
    double lastRestart_ = -1e9;
    double nextSocSample_ = 0.0;
    double scStartWh_ = 0.0;
    double baStartWh_ = 0.0;
    double perfDegradation_ = 0.0;
    std::size_t plannedOffline_ = 0;
    unsigned long faultsApplied_ = 0;
    std::array<unsigned long, fault::kFaultKindCount>
        faultsByKind_{};
    unsigned long crashEvents_ = 0;
    unsigned long gracefulShedEvents_ = 0;
    unsigned long shortfallTicks_ = 0;
    std::vector<std::string> faultLog_;

    // Accumulating series/ledger mirrored into finalize().
    EnergyLedger ledger_;
    TimeSeries demandSeries_;
    TimeSeries supplySeries_;
    TimeSeries unservedSeries_;
    TimeSeries scSocSeries_;
    TimeSeries baSocSeries_;
    TimeSeries rLambdaSeries_;
    double peakDrawW_ = 0.0;
};

} // namespace heb
