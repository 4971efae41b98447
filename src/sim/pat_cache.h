/**
 * @file
 * Shared cache of profiler-seeded power allocation tables.
 *
 * Seeding a PAT races real bank models through dozens of profiling
 * scenarios — by far the most expensive fixed cost of a sweep point.
 * But the profiler only reads the bank layout (installed energies
 * and DoD throttles) plus the scheme's table geometry: every sweep
 * cell that shares those fields gets a bit-identical table. The
 * cache keys on exactly that field set, so a Fig. 12 grid seeds
 * once, and a ratio or capacity sweep seeds once per distinct bank
 * layout instead of once per (scheme × workload) cell.
 *
 * Entries are immutable and shared (schemes copy their working
 * table out of the seed), so concurrent sweep tasks may read one
 * entry while another key is still being built. Duplicate
 * concurrent misses on the same key build once: later requesters
 * block on the first builder's future.
 */

#pragma once

#include <compare>
#include <cstddef>
#include <memory>

#include "core/pat.h"
#include "core/schemes.h"
#include "sim/build_once.h"
#include "sim/sim_config.h"

namespace heb {

/**
 * The configuration fields the PAT profiler actually reads: the
 * bank layout from SimConfig and the table geometry from the scheme
 * config. Anything else (budget, duration, seed, workloads...)
 * cannot change the seeded table.
 */
struct PatSeedKey
{
    double scEnergyWh = 0.0;
    double scDod = 0.0;
    double baEnergyWh = 0.0;
    double baDod = 0.0;
    double scStepWh = 0.0;
    double baStepWh = 0.0;
    double pmStepW = 0.0;
    double deltaR = 0.0;
    double smallPeakThresholdW = 0.0;

    auto operator<=>(const PatSeedKey &) const = default;
};

/** The cache key for seeding under @p config / @p scheme_cfg. */
PatSeedKey patSeedKey(const SimConfig &config,
                      const HebSchemeConfig &scheme_cfg);

/** Process-wide seeded-PAT cache shared by the sweep engine. */
class SeededPatCache
{
  public:
    /** The cache the experiment sweeps share. */
    static SeededPatCache &global();

    /**
     * The seeded table for this bank layout + table geometry,
     * building it on first request. Thread-safe; the returned table
     * is immutable and may outlive the cache entry.
     */
    std::shared_ptr<const PowerAllocationTable>
    get(const SimConfig &config, const HebSchemeConfig &scheme_cfg);

    /** Lookups served from an existing entry. */
    std::size_t hits() const;

    /** Lookups that had to seed a new table. */
    std::size_t misses() const;

    /** Distinct keys currently cached. */
    std::size_t size() const;

    /** Drop every entry and zero the hit/miss counters. */
    void clear();

    SeededPatCache() = default;
    SeededPatCache(const SeededPatCache &) = delete;
    SeededPatCache &operator=(const SeededPatCache &) = delete;

  private:
    BuildOnce<PatSeedKey, std::shared_ptr<const PowerAllocationTable>>
        entries_{"sim.pat_cache"};
};

} // namespace heb
