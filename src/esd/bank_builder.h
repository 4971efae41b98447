/**
 * @file
 * Helpers that size SC/battery banks to target energies.
 *
 * The evaluation sweeps bank capacity two ways (paper §7.5): by
 * re-splitting a constant total between SC and battery (Fig. 13) and
 * by throttling depth-of-discharge to mimic total-capacity growth
 * (Fig. 14). These builders produce pools for both sweeps.
 */

#pragma once

#include <cstddef>
#include <memory>

#include "esd/esd_pool.h"

namespace heb {

/**
 * Build an SC pool whose *usable* energy is @p energy_wh, then
 * throttle its usable window to @p dod (1.0 = full window).
 *
 * @param modules  Number of parallel banks to split the energy over.
 */
std::unique_ptr<EsdPool> makeScBank(double energy_wh, double dod = 1.0,
                                    std::size_t modules = 2);

/**
 * Build a 24 V lead-acid pool whose nominal energy is @p energy_wh
 * with its usable depth-of-discharge clamped to @p dod.
 *
 * @param strings  Number of parallel battery strings.
 * @param aging    Enable capacity-fade aging (paper §5.3).
 */
std::unique_ptr<EsdPool> makeBatteryBank(double energy_wh,
                                         double dod = 0.8,
                                         std::size_t strings = 2,
                                         bool aging = false);

} // namespace heb
