#include "sim/pat_cache.h"

#include "sim/experiment.h"

namespace heb {

PatSeedKey
patSeedKey(const SimConfig &config,
           const HebSchemeConfig &scheme_cfg)
{
    PatSeedKey key;
    key.scEnergyWh = config.scEnergyWh;
    key.scDod = config.scDod;
    key.baEnergyWh = config.baEnergyWh;
    key.baDod = config.baDod;
    key.scStepWh = scheme_cfg.patGrid.scStepWh;
    key.baStepWh = scheme_cfg.patGrid.baStepWh;
    key.pmStepW = scheme_cfg.patGrid.pmStepW;
    key.deltaR = scheme_cfg.deltaR;
    key.smallPeakThresholdW = scheme_cfg.smallPeakThresholdW;
    return key;
}

SeededPatCache &
SeededPatCache::global()
{
    static SeededPatCache cache;
    return cache;
}

std::shared_ptr<const PowerAllocationTable>
SeededPatCache::get(const SimConfig &config,
                    const HebSchemeConfig &scheme_cfg)
{
    // Seeding runs outside the lock, so other layouts keep building
    // in parallel.
    return entries_.get(patSeedKey(config, scheme_cfg), [&] {
        return std::make_shared<const PowerAllocationTable>(
            buildSeededPat(config, scheme_cfg));
    });
}

std::size_t
SeededPatCache::hits() const
{
    return entries_.hits();
}

std::size_t
SeededPatCache::misses() const
{
    return entries_.misses();
}

std::size_t
SeededPatCache::size() const
{
    return entries_.size();
}

void
SeededPatCache::clear()
{
    entries_.clear();
}

} // namespace heb
