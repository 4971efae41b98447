/**
 * @file
 * The calm fleet the event-engine tests share: jitter-free flat
 * phases with no diurnal swing or server stagger, the regime in which
 * fleet-wide macro-spans cover most ticks.
 */

#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/schemes.h"
#include "sim/fleet.h"
#include "workload/workload_profiles.h"

namespace heb::test {

/**
 * A 900 s high phase at @p high_util and a 4500 s low phase at 5 %.
 * Six default 30/70 W servers draw ~252 W at 0.30, under the default
 * 260 W budget, so a calm rack never browns out on its own.
 */
inline ProfileParams
calmProfile(const std::string &name, double high_util)
{
    ProfileParams p;
    p.name = name;
    p.peakClass = PeakClass::Large;
    p.highUtil = high_util;
    p.lowUtil = 0.05;
    p.highPhaseS = 900.0;
    p.lowPhaseS = 4500.0;
    p.jitter = 0.0;
    p.diurnalDepth = 0.0;
    p.serverStagger = 0.0;
    return p;
}

/** A default SimConfig @p hours long, with or without the default
 *  fault plan. */
inline SimConfig
hoursConfig(double hours, bool faults = false)
{
    SimConfig cfg;
    cfg.durationSeconds = hours * 3600.0;
    cfg.faultInjection = faults;
    return cfg;
}

/** Racks on @p workloads, named rack0..., one fresh scheme each:
 *  @p kinds[i], or HEB-D when @p kinds is empty. */
struct Rig
{
    explicit Rig(std::vector<std::unique_ptr<SyntheticWorkload>> racks,
                 const std::vector<SchemeKind> &kinds = {})
        : workloads(std::move(racks))
    {
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            schemes.push_back(
                makeScheme(kinds.empty() ? SchemeKind::HebD : kinds[i]));
            specs.push_back(RackSpec{"rack" + std::to_string(i),
                                     workloads[i].get(),
                                     schemes[i].get()});
        }
    }

    std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
    std::vector<std::unique_ptr<ManagementScheme>> schemes;
    std::vector<RackSpec> specs;
};

/**
 * The first @p racks of the calm racks CA, CB and CC (highs 0.30,
 * 0.22 and 0.10; workload seeds 1, 2 and 3).
 */
inline Rig
calmRig(std::size_t racks = 3)
{
    const double utils[3] = {0.30, 0.22, 0.10};
    const char *names[3] = {"CA", "CB", "CC"};
    std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
    for (std::size_t i = 0; i < racks; ++i)
        workloads.push_back(std::make_unique<SyntheticWorkload>(
            calmProfile(names[i], utils[i]), i + 1));
    return Rig(std::move(workloads));
}

} // namespace heb::test
