/**
 * @file
 * Budgeted utility feed with outage windows.
 *
 * Under-provisioned datacenters subscribe a power budget below the
 * nameplate peak (paper Fig. 1a). The grid model exposes the budget
 * as available power, except inside scheduled outage windows, where
 * it offers nothing. The fleet's facility feed also registers the
 * fault plan's ATS transfer failures here: a stuck transfer switch
 * cuts the supply exactly like an outage. The billed peak draw the
 * TCO library prices (paper Fig. 15c, 12 $/kW) is the engine's
 * SimResult::peakUtilityDrawW / FleetResult::facilityPeakDrawW.
 */

#pragma once

#include <string>
#include <vector>

#include "power/power_source.h"

namespace heb {

/** The (possibly under-provisioned) utility feed. */
class UtilityGrid : public PowerSource
{
  public:
    /** Construct with a constant power budget (W). */
    explicit UtilityGrid(double budget_w);

    const std::string &name() const override { return name_; }

    double availablePowerW(double time_seconds) const override;

    double nextChangeTime(double time_seconds) const override;

    /**
     * Schedule a supply cut: availablePowerW reports zero in
     * [start, start + duration). Windows may be registered ahead of
     * time and may overlap. Buffers must ride through (the classic
     * UPS role the paper's architecture keeps serving).
     */
    void addOutage(double start_seconds, double duration_seconds);

    /** True when @p time_seconds falls inside a scheduled outage. */
    bool inOutage(double time_seconds) const;

  private:
    struct Outage
    {
        double start;
        double end;
    };

    std::string name_ = "utility";
    double budget_;
    std::vector<Outage> outages_;
};

} // namespace heb
