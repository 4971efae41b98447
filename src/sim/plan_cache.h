/**
 * @file
 * Shared cache of immutable simulation plans.
 *
 * A fleet run (and an experiment sweep) used to rebuild the same
 * deterministic inputs once per rack / sweep cell: the synthetic
 * workload plan and the pre-sampled solar generation trace are both
 * pure functions of (configuration, seed), so same-config racks got
 * n bit-identical copies. PR 5/6 already shares the FaultPlan this
 * way; this cache extends the idiom to the remaining immutable
 * plans. Entries are built once per key (sim/build_once.h, shared
 * with SeededPatCache) and
 * handed out as shared_ptr-to-const, so racks ticking in parallel
 * can read one plan without copies or races.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "power/solar_array.h"
#include "sim/build_once.h"
#include "util/time_series.h"
#include "workload/workload_profiles.h"

namespace heb {

/** Identity of a synthetic workload plan: profile + stagger seed. */
struct WorkloadPlanKey
{
    std::string abbreviation;
    std::uint64_t seed = 0;

    auto operator<=>(const WorkloadPlanKey &) const = default;
};

/**
 * Identity of a solar trace: every SolarParams knob the generator
 * reads, plus the sampling grid and the cloud-process seed.
 */
struct SolarTraceKey
{
    double ratedPowerW = 0.0;
    double sunriseHour = 0.0;
    double sunsetHour = 0.0;
    double partlyCloudyFactor = 0.0;
    double overcastFactor = 0.0;
    double pLeaveClear = 0.0;
    double pLeavePartly = 0.0;
    double pLeaveOvercast = 0.0;
    double noiseSigma = 0.0;
    double durationSeconds = 0.0;
    double stepSeconds = 0.0;
    std::uint64_t seed = 0;

    auto operator<=>(const SolarTraceKey &) const = default;
};

/** The cache key for a solar trace under these generator inputs. */
SolarTraceKey solarTraceKey(const SolarParams &params,
                            double duration_seconds,
                            double step_seconds, std::uint64_t seed);

/** Process-wide cache of immutable workload and solar plans. */
class SharedPlanCache
{
  public:
    /** The cache fleet runs and experiment sweeps share. */
    static SharedPlanCache &global();

    /**
     * The workload plan for @p abbreviation staggered by @p seed,
     * built on first request. Thread-safe; SyntheticWorkload is
     * stateless after construction, so one instance may serve any
     * number of racks concurrently.
     */
    std::shared_ptr<const SyntheticWorkload>
    workload(const std::string &abbreviation, std::uint64_t seed);

    /**
     * The pre-sampled solar generation trace for these generator
     * inputs, built on first request. Bit-identical to what a
     * privately-constructed SolarArray would sample.
     */
    std::shared_ptr<const TimeSeries>
    solarTrace(const SolarParams &params, double duration_seconds,
               double step_seconds, std::uint64_t seed);

    /** Lookups served from an existing entry. */
    std::size_t hits() const;

    /** Lookups that had to build a new plan. */
    std::size_t misses() const;

    /** Distinct plans currently cached. */
    std::size_t size() const;

    /** Drop every entry and zero the hit/miss counters. */
    void clear();

    SharedPlanCache() = default;
    SharedPlanCache(const SharedPlanCache &) = delete;
    SharedPlanCache &operator=(const SharedPlanCache &) = delete;

  private:
    BuildOnce<WorkloadPlanKey, std::shared_ptr<const SyntheticWorkload>>
        workloads_{"sim.plan_cache"};
    BuildOnce<SolarTraceKey, std::shared_ptr<const TimeSeries>> solar_{
        "sim.plan_cache"};
};

} // namespace heb
