/**
 * @file
 * Server cluster: the prototype's rack of low-power nodes.
 *
 * The nodes match the prototype's computing servers: Intel i7-2720QM
 * boxes with 30 W idle / 70 W peak, dual-corded supplies, and an
 * on-demand frequency governor pinned to 1.3 GHz (low) or 1.8 GHz
 * (high). The cluster maps (utilization, frequency) to wall power,
 * accounts the energy wasted by on/off cycles — the paper notes boot
 * waste eats nearly half of any battery "recovery" savings — and
 * offers the least-recently-used shutdown order the evaluation uses
 * when buffers cannot cover a shortfall.
 *
 * Server state lives in per-server arrays under one ServerParams, and
 * every power-on and power-off goes through the cluster, which keeps
 * the online count as it goes.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace heb {

/** Static server parameters, shared by every server of a cluster. */
struct ServerParams
{
    /** Wall power when idle at full frequency (W). */
    double idlePowerW = 30.0;

    /** Wall power at 100 % utilization and full frequency (W). */
    double peakPowerW = 70.0;

    /** Low DVFS frequency (GHz). */
    double lowFreqGhz = 1.3;

    /** High DVFS frequency (GHz). */
    double highFreqGhz = 1.8;

    /** Exponent of dynamic-power scaling with frequency. */
    double freqPowerExponent = 2.0;

    /** Time to boot after power-on (s). */
    double bootTimeS = 60.0;

    /** Average wall power while booting (W). */
    double bootPowerW = 50.0;
};

/** A rack of dual-corded servers managed as one power domain. */
class Cluster
{
  public:
    /** DVFS setting. */
    enum class Frequency { Low, High };

    /**
     * Build @p count identical servers from @p params, all online at
     * high frequency.
     */
    Cluster(std::size_t count, ServerParams params = {});

    /** Number of servers (on or off). */
    std::size_t size() const { return on_.size(); }

    /** Parameters shared by every server. */
    const ServerParams &params() const { return params_; }

    /** Number of servers currently powered on (booting counts). */
    std::size_t onlineCount() const { return online_; }

    /** True when server @p i is powered at all (booting counts). */
    bool isOn(std::size_t i) const { return on_[i] != 0; }

    /** True when server @p i is powered and past its boot window. */
    bool
    isUp(std::size_t i, double now_seconds) const
    {
        return on_[i] && now_seconds >= bootDone_[i];
    }

    /** DVFS level of server @p i. */
    Frequency frequency(std::size_t i) const { return freq_[i]; }

    /** Set every server's DVFS level. */
    void setFrequency(Frequency freq);

    /**
     * Wall power (W) of server @p i at @p utilization in [0,1] given
     * its power state: 0 when off, boot power while booting, and the
     * idle + dynamic model when up.
     */
    double
    powerW(std::size_t i, double utilization, double now_seconds) const
    {
        if (!on_[i])
            return 0.0;
        if (now_seconds < bootDone_[i])
            return params_.bootPowerW;
        double u = std::clamp(utilization, 0.0, 1.0);
        double factor =
            freq_[i] == Frequency::High ? highFactor_ : lowFactor_;
        return params_.idlePowerW + dynamicRangeW_ * u * factor;
    }

    /**
     * One tick's demand pass: record LRU activity (a server that is
     * up and busier than 5 % was active at @p now_seconds) and return
     * the total wall power at the per-server @p utilization (sized
     * like the cluster), summed in server order.
     */
    double demandW(std::span<const double> utilization,
                   double now_seconds);

    /**
     * Total wall power at the per-server @p utilization (sized like
     * the cluster), without recording activity.
     */
    double totalPowerW(std::span<const double> utilization,
                       double now_seconds) const;

    /** Aggregate nameplate peak (all servers at 100 %, high freq). */
    double nameplatePeakW() const;

    /** Aggregate idle floor with every server online. */
    double idleFloorW() const;

    /** Last time server @p i did meaningful work (LRU order). */
    double lastActiveTime(std::size_t i) const { return lastActive_[i]; }

    /**
     * Power off the @p count least-recently-active online servers at
     * @p now_seconds; returns the indices actually shut down.
     */
    std::vector<std::size_t> shutdownLru(std::size_t count,
                                         double now_seconds);

    /** Power on every offline server. */
    void powerOnAll(double now_seconds);

    /**
     * Power on the lowest-indexed offline server at @p now_seconds;
     * false when every server is already on.
     */
    bool powerOnFirstOffline(double now_seconds);

    /** Account @p dt_seconds of off time to every offline server. */
    void accrueDowntime(double dt_seconds);

    /** Aggregate downtime across servers (s). */
    double totalDowntimeSeconds() const;

    /** Aggregate on/off cycles across servers. */
    unsigned long totalOnOffCycles() const;

    /** Aggregate boot-energy waste (Wh). */
    double totalBootEnergyWh() const;

    /** Complete mutable state of one server, for checkpointing. */
    struct ServerState
    {
        Frequency frequency = Frequency::High;
        bool on = true;
        double bootDoneTime = 0.0;
        double lastActive = 0.0;
        double downtime = 0.0;
        unsigned long cycles = 0;
    };

    /** Snapshot server @p i. */
    ServerState serverState(std::size_t i) const;

    /** Restore server @p i from a state read with serverState(). */
    void restoreServer(std::size_t i, const ServerState &state);

  private:
    void powerOff(std::size_t i, double now_seconds);
    void powerOn(std::size_t i, double now_seconds);

    ServerParams params_;
    double dynamicRangeW_; //!< peakPowerW - idlePowerW
    double highFactor_;    //!< dynamic-power scale at high frequency
    double lowFactor_;     //!< dynamic-power scale at low frequency
    std::size_t online_;

    std::vector<std::uint8_t> on_;
    std::vector<double> bootDone_;
    std::vector<double> lastActive_;
    std::vector<double> downtime_;
    std::vector<unsigned long> cycles_;
    std::vector<Frequency> freq_;
};

} // namespace heb
