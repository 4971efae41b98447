#include "esd/esd_pool.h"

#include <algorithm>

#include "util/logging.h"

namespace heb {

namespace {

/**
 * Per-call scratch for the proportional power split: inline storage
 * for typical pool sizes, heap fallback for oversized banks. Avoids
 * a vector allocation on the per-tick charge/discharge paths.
 */
class SplitBuffer
{
  public:
    explicit SplitBuffer(std::size_t count)
    {
        if (count > kInline)
            heap_.resize(count);
    }

    double *data()
    {
        return heap_.empty() ? inline_ : heap_.data();
    }

  private:
    static constexpr std::size_t kInline = 8;
    double inline_[kInline];
    std::vector<double> heap_;
};

} // namespace

EsdPool::EsdPool(std::string name)
    : name_(std::move(name)),
      dischargeWhMetric_(obs::MetricsRegistry::global().counter(
          "esd." + name_ + ".discharge_wh")),
      chargeWhMetric_(obs::MetricsRegistry::global().counter(
          "esd." + name_ + ".charge_wh")),
      starvedTicksMetric_(obs::MetricsRegistry::global().counter(
          "esd." + name_ + ".starved_ticks_total"))
{
}

void
EsdPool::add(std::unique_ptr<EnergyStorageDevice> device)
{
    if (!device)
        fatal("EsdPool::add null device");
    devices_.push_back(std::move(device));
}

EnergyStorageDevice &
EsdPool::device(std::size_t index)
{
    if (index >= devices_.size())
        panic("EsdPool device index out of range");
    return *devices_[index];
}

const EnergyStorageDevice &
EsdPool::device(std::size_t index) const
{
    if (index >= devices_.size())
        panic("EsdPool device index out of range");
    return *devices_[index];
}

double
EsdPool::discharge(double watts, double dt_seconds)
{
    if (devices_.empty())
        return 0.0;
    const std::size_t n = devices_.size();
    // Proportional-to-capability split: each member can always honour
    // its share because share_i <= max_i. The split buffer lives on
    // the stack for typical pool sizes — this runs every tick.
    SplitBuffer split(n);
    double *caps = split.data();
    double total_cap = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        caps[i] = devices_[i]->maxDischargePowerW(dt_seconds);
        total_cap += caps[i];
    }
    if (total_cap <= 0.0 || watts <= 0.0) {
        rest(dt_seconds);
        if (watts > 0.0)
            starvedTicksMetric_.inc();
        return 0.0;
    }
    double target = std::min(watts, total_cap);
    double delivered = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double share = target * caps[i] / total_cap;
        if (share > 0.0)
            delivered += devices_[i]->discharge(share, dt_seconds);
        else
            devices_[i]->rest(dt_seconds);
    }
    dischargeWhMetric_.add(delivered * dt_seconds / 3600.0);
    if (delivered + 1e-9 < watts)
        starvedTicksMetric_.inc();
    return delivered;
}

double
EsdPool::charge(double watts, double dt_seconds)
{
    if (devices_.empty())
        return 0.0;
    const std::size_t n = devices_.size();
    SplitBuffer split(n);
    double *caps = split.data();
    double total_cap = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        caps[i] = devices_[i]->maxChargePowerW(dt_seconds);
        total_cap += caps[i];
    }
    if (total_cap <= 0.0 || watts <= 0.0) {
        rest(dt_seconds);
        return 0.0;
    }
    double target = std::min(watts, total_cap);
    double absorbed = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double share = target * caps[i] / total_cap;
        if (share > 0.0)
            absorbed += devices_[i]->charge(share, dt_seconds);
        else
            devices_[i]->rest(dt_seconds);
    }
    chargeWhMetric_.add(absorbed * dt_seconds / 3600.0);
    return absorbed;
}

void
EsdPool::rest(double dt_seconds)
{
    for (auto &d : devices_)
        d->rest(dt_seconds);
}

void
EsdPool::advanceQuiescent(std::size_t ticks, double dt_seconds)
{
    // Members are independent, so device-major order produces the
    // same per-device state as the tick-major interleaving of n
    // rest() fan-outs — and lets each member use its own shortcut.
    for (auto &d : devices_)
        d->advanceQuiescent(ticks, dt_seconds);
}

double
EsdPool::usableEnergyWh() const
{
    double acc = 0.0;
    for (const auto &d : devices_)
        acc += d->usableEnergyWh();
    return acc;
}

double
EsdPool::capacityWh() const
{
    double acc = 0.0;
    for (const auto &d : devices_)
        acc += d->capacityWh();
    return acc;
}

double
EsdPool::soc() const
{
    double cap = capacityWh();
    if (cap <= 0.0)
        return 0.0;
    double acc = 0.0;
    for (const auto &d : devices_)
        acc += d->soc() * d->capacityWh();
    return acc / cap;
}

double
EsdPool::terminalVoltage(double load_watts) const
{
    if (devices_.empty())
        return 0.0;
    // Report the weakest member's terminal voltage under its share of
    // the load: the first point the system would brown out.
    double total_cap = 0.0;
    SplitBuffer split(devices_.size());
    double *caps = split.data();
    for (std::size_t i = 0; i < devices_.size(); ++i) {
        caps[i] = devices_[i]->maxDischargePowerW(1.0);
        total_cap += caps[i];
    }
    double v_min = devices_[0]->terminalVoltage(0.0);
    for (std::size_t i = 0; i < devices_.size(); ++i) {
        double share = total_cap > 0.0
                           ? load_watts * caps[i] / total_cap
                           : 0.0;
        v_min = std::min(v_min, devices_[i]->terminalVoltage(share));
    }
    return v_min;
}

double
EsdPool::maxDischargePowerW(double dt_seconds) const
{
    double acc = 0.0;
    for (const auto &d : devices_)
        acc += d->maxDischargePowerW(dt_seconds);
    return acc;
}

double
EsdPool::maxChargePowerW(double dt_seconds) const
{
    double acc = 0.0;
    for (const auto &d : devices_)
        acc += d->maxChargePowerW(dt_seconds);
    return acc;
}

bool
EsdPool::depleted(double dt_seconds) const
{
    for (const auto &d : devices_) {
        if (!d->depleted(dt_seconds))
            return false;
    }
    return true;
}

double
EsdPool::lifetimeFractionUsed() const
{
    // The pool wears out when its most-worn member does.
    double worst = 0.0;
    for (const auto &d : devices_)
        worst = std::max(worst, d->lifetimeFractionUsed());
    return worst;
}

const EsdCounters &
EsdPool::counters() const
{
    // Re-summed on every read: members move on every step, and a
    // pool has a handful of them.
    aggregate_ = EsdCounters{};
    for (const auto &d : devices_) {
        const EsdCounters &c = d->counters();
        aggregate_.chargeEnergyWh += c.chargeEnergyWh;
        aggregate_.dischargeEnergyWh += c.dischargeEnergyWh;
        aggregate_.lossEnergyWh += c.lossEnergyWh;
        aggregate_.dischargeAh += c.dischargeAh;
        aggregate_.chargeAh += c.chargeAh;
        aggregate_.directionChanges += c.directionChanges;
    }
    return aggregate_;
}

void
EsdPool::reset()
{
    for (auto &d : devices_)
        d->reset();
}

void
EsdPool::setSoc(double soc)
{
    for (auto &d : devices_)
        d->setSoc(soc);
}

void
EsdPool::applyHealthDerate(double capacity_factor,
                           double resistance_factor)
{
    for (auto &d : devices_)
        d->applyHealthDerate(capacity_factor, resistance_factor);
}

} // namespace heb
