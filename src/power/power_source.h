/**
 * @file
 * Abstract upstream power source.
 *
 * A source answers one question per tick: how many watts can the
 * datacenter draw from you right now? The utility grid answers with
 * its (possibly under-provisioned) budget; a solar array answers with
 * whatever the sky allows.
 */

#pragma once

#include <string>

namespace heb {

/** An upstream power feed. */
class PowerSource
{
  public:
    virtual ~PowerSource() = default;

    /** Human-readable source name. */
    virtual const std::string &name() const = 0;

    /** Power (W) available at absolute time @p time_seconds. */
    virtual double availablePowerW(double time_seconds) const = 0;

    /**
     * Event-horizon query for the fast-forward engine: the earliest
     * time T > @p time_seconds at which availablePowerW() may return
     * a different value. On [time_seconds, T) the supply must be
     * bitwise constant. Returning @p time_seconds declares "no
     * guarantee" and keeps the simulator dense — the safe default.
     */
    virtual double nextChangeTime(double time_seconds) const
    {
        return time_seconds;
    }
};

} // namespace heb
