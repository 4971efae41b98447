#include "sim/plan_cache.h"

namespace heb {

SolarTraceKey
solarTraceKey(const SolarParams &params, double duration_seconds,
              double step_seconds, std::uint64_t seed)
{
    SolarTraceKey key;
    key.ratedPowerW = params.ratedPowerW;
    key.sunriseHour = params.sunriseHour;
    key.sunsetHour = params.sunsetHour;
    key.partlyCloudyFactor = params.partlyCloudyFactor;
    key.overcastFactor = params.overcastFactor;
    key.pLeaveClear = params.pLeaveClear;
    key.pLeavePartly = params.pLeavePartly;
    key.pLeaveOvercast = params.pLeaveOvercast;
    key.noiseSigma = params.noiseSigma;
    key.durationSeconds = duration_seconds;
    key.stepSeconds = step_seconds;
    key.seed = seed;
    return key;
}

SharedPlanCache &
SharedPlanCache::global()
{
    static SharedPlanCache cache;
    return cache;
}

std::shared_ptr<const SyntheticWorkload>
SharedPlanCache::workload(const std::string &abbreviation,
                          std::uint64_t seed)
{
    return workloads_.get(WorkloadPlanKey{abbreviation, seed}, [&] {
        return std::shared_ptr<const SyntheticWorkload>(
            makeWorkload(abbreviation, seed));
    });
}

std::shared_ptr<const TimeSeries>
SharedPlanCache::solarTrace(const SolarParams &params,
                            double duration_seconds,
                            double step_seconds, std::uint64_t seed)
{
    SolarTraceKey key = solarTraceKey(params, duration_seconds,
                                      step_seconds, seed);
    return solar_.get(key, [&] {
        return std::make_shared<const TimeSeries>(generateSolarTrace(
            params, duration_seconds, step_seconds, seed));
    });
}

std::size_t
SharedPlanCache::hits() const
{
    return workloads_.hits() + solar_.hits();
}

std::size_t
SharedPlanCache::misses() const
{
    return workloads_.misses() + solar_.misses();
}

std::size_t
SharedPlanCache::size() const
{
    return workloads_.size() + solar_.size();
}

void
SharedPlanCache::clear()
{
    workloads_.clear();
    solar_.clear();
}

} // namespace heb
