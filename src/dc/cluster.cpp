#include "dc/cluster.h"

#include <cmath>

#include "util/logging.h"
#include "util/units.h"

namespace heb {

Cluster::Cluster(std::size_t count, ServerParams params)
    : params_(params), online_(count), on_(count, 1),
      bootDone_(count, 0.0), lastActive_(count, 0.0),
      downtime_(count, 0.0), cycles_(count, 0),
      freq_(count, Frequency::High)
{
    if (count == 0)
        fatal("Cluster needs at least one server");
    if (params_.idlePowerW < 0.0 ||
        params_.peakPowerW <= params_.idlePowerW) {
        fatal("Server power envelope invalid: idle ", params_.idlePowerW,
              " peak ", params_.peakPowerW);
    }
    if (params_.lowFreqGhz <= 0.0 ||
        params_.highFreqGhz < params_.lowFreqGhz) {
        fatal("Server frequency levels invalid");
    }
    dynamicRangeW_ = params_.peakPowerW - params_.idlePowerW;
    highFactor_ = std::pow(params_.highFreqGhz / params_.highFreqGhz,
                           params_.freqPowerExponent);
    lowFactor_ = std::pow(params_.lowFreqGhz / params_.highFreqGhz,
                          params_.freqPowerExponent);
}

void
Cluster::setFrequency(Frequency freq)
{
    std::fill(freq_.begin(), freq_.end(), freq);
}

double
Cluster::demandW(std::span<const double> utilization, double now_seconds)
{
    if (utilization.size() != size())
        fatal("Cluster::demandW utilization size mismatch");
    double acc = 0.0;
    for (std::size_t i = 0; i < size(); ++i) {
        if (utilization[i] > 0.05 && isUp(i, now_seconds))
            lastActive_[i] = now_seconds;
        acc += powerW(i, utilization[i], now_seconds);
    }
    return acc;
}

double
Cluster::totalPowerW(std::span<const double> utilization,
                     double now_seconds) const
{
    if (utilization.size() != size())
        fatal("Cluster::totalPowerW utilization size mismatch");
    double acc = 0.0;
    for (std::size_t i = 0; i < size(); ++i)
        acc += powerW(i, utilization[i], now_seconds);
    return acc;
}

double
Cluster::nameplatePeakW() const
{
    double acc = 0.0;
    for (std::size_t i = 0; i < size(); ++i)
        acc += params_.peakPowerW;
    return acc;
}

double
Cluster::idleFloorW() const
{
    double acc = 0.0;
    for (std::size_t i = 0; i < size(); ++i)
        acc += params_.idlePowerW;
    return acc;
}

void
Cluster::powerOff(std::size_t i, double now_seconds)
{
    if (!on_[i])
        return;
    on_[i] = 0;
    lastActive_[i] = std::min(lastActive_[i], now_seconds);
    --online_;
}

void
Cluster::powerOn(std::size_t i, double now_seconds)
{
    if (on_[i])
        return;
    on_[i] = 1;
    bootDone_[i] = now_seconds + params_.bootTimeS;
    ++cycles_[i];
    ++online_;
}

std::vector<std::size_t>
Cluster::shutdownLru(std::size_t count, double now_seconds)
{
    std::vector<std::size_t> online;
    for (std::size_t i = 0; i < size(); ++i) {
        if (on_[i])
            online.push_back(i);
    }
    std::sort(online.begin(), online.end(),
              [this](std::size_t a, std::size_t b) {
                  return lastActive_[a] < lastActive_[b];
              });
    std::vector<std::size_t> victims;
    for (std::size_t i = 0; i < online.size() && i < count; ++i) {
        powerOff(online[i], now_seconds);
        victims.push_back(online[i]);
    }
    return victims;
}

void
Cluster::powerOnAll(double now_seconds)
{
    for (std::size_t i = 0; i < size(); ++i)
        powerOn(i, now_seconds);
}

bool
Cluster::powerOnFirstOffline(double now_seconds)
{
    for (std::size_t i = 0; i < size(); ++i) {
        if (!on_[i]) {
            powerOn(i, now_seconds);
            return true;
        }
    }
    return false;
}

void
Cluster::accrueDowntime(double dt_seconds)
{
    if (online_ == size())
        return;
    for (std::size_t i = 0; i < size(); ++i) {
        if (!on_[i])
            downtime_[i] += dt_seconds;
    }
}

double
Cluster::totalDowntimeSeconds() const
{
    double acc = 0.0;
    for (double d : downtime_)
        acc += d;
    return acc;
}

unsigned long
Cluster::totalOnOffCycles() const
{
    unsigned long acc = 0;
    for (unsigned long c : cycles_)
        acc += c;
    return acc;
}

double
Cluster::totalBootEnergyWh() const
{
    const double per_boot = energyWh(params_.bootPowerW, params_.bootTimeS);
    double acc = 0.0;
    for (unsigned long c : cycles_)
        acc += static_cast<double>(c) * per_boot;
    return acc;
}

Cluster::ServerState
Cluster::serverState(std::size_t i) const
{
    return {freq_[i], on_[i] != 0, bootDone_[i], lastActive_[i],
            downtime_[i], cycles_[i]};
}

void
Cluster::restoreServer(std::size_t i, const ServerState &state)
{
    if (isOn(i) != state.on) {
        if (state.on)
            ++online_;
        else
            --online_;
    }
    freq_[i] = state.frequency;
    on_[i] = state.on ? 1 : 0;
    bootDone_[i] = state.bootDoneTime;
    lastActive_[i] = state.lastActive;
    downtime_[i] = state.downtime;
    cycles_[i] = state.cycles;
}

} // namespace heb
