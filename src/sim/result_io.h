/**
 * @file
 * SimResult persistence: export a run's series and metrics to CSV
 * for external plotting/analysis, and build a SimConfig from a
 * key=value Config file.
 */

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "sim/sim_config.h"
#include "sim/sim_result.h"
#include "util/config.h"

namespace heb {

/**
 * Write the per-tick series (demand, supply, unserved) to
 * `<prefix>_ticks.csv` and the per-slot series (SoCs, R_lambda) to
 * `<prefix>_slots.csv`.
 */
void writeResultSeries(const SimResult &result,
                       const std::string &prefix);

/** Write the scalar metrics of one or more runs as rows. */
void writeResultMetrics(const std::vector<SimResult> &results,
                        const std::string &path);

/**
 * Build a SimConfig from a Config file. Recognized keys (all
 * optional, defaults from SimConfig):
 *   servers, tick_seconds, slot_seconds, duration_hours, budget_w,
 *   solar, solar_rated_w, seed, sc_wh, ba_wh, sc_dod, ba_dod,
 *   battery_aging, dvfs_capping, sensor_noise_sigma,
 *   fault_injection, fault_seed, degradation_policy, fast_forward,
 *   record_series
 */
SimConfig simConfigFromConfig(const Config &config);

/**
 * Echo a SimConfig as ordered key=value pairs using the same key
 * names simConfigFromConfig() accepts — a written run manifest can
 * be replayed as a config file.
 */
std::vector<std::pair<std::string, std::string>>
describeSimConfig(const SimConfig &config);

} // namespace heb
