/** @file Pilot profiling (Fig. 6 races and PAT seeding). */

#include <gtest/gtest.h>

#include <limits>

#include "core/profiler.h"
#include "esd/bank_builder.h"
#include "obs/metrics.h"

namespace heb {
namespace {

BufferProfiler
prototypeProfiler(ProfilerConfig cfg = {})
{
    return BufferProfiler(
        []() { return makeScBank(28.8); },
        []() { return makeBatteryBank(67.2); }, cfg);
}

TEST(Profiler, EnduranceRaceRunsOut)
{
    BufferProfiler p = prototypeProfiler();
    double t = p.dischargeRuntime(1.0, 1.0, 140.0, 0.5);
    EXPECT_GT(t, 60.0);
    EXPECT_LT(t, 4.0 * 3600.0);
}

TEST(Profiler, MoreMismatchDiesSooner)
{
    BufferProfiler p = prototypeProfiler();
    EXPECT_GT(p.dischargeRuntime(1.0, 1.0, 100.0, 0.6),
              p.dischargeRuntime(1.0, 1.0, 200.0, 0.6));
}

TEST(Profiler, LowerSocDiesSooner)
{
    BufferProfiler p = prototypeProfiler();
    EXPECT_GT(p.dischargeRuntime(1.0, 1.0, 140.0, 0.6),
              p.dischargeRuntime(0.4, 0.4, 140.0, 0.6));
}

TEST(Profiler, Fig6InteriorOptimum)
{
    // The paper's Fig. 6 headline: for a mismatch the battery cannot
    // carry alone and the SC cannot sustain alone, the best split is
    // interior.
    BufferProfiler p = prototypeProfiler();
    RuntimeProfile prof = p.profileScenario(1.0, 1.0, 150.0);
    ASSERT_EQ(prof.ratios.size(), 11u);
    double best = prof.bestRatio();
    EXPECT_GT(best, 0.0);
    EXPECT_LT(best, 1.0);
    // Interior beats both extremes.
    EXPECT_GT(prof.bestRuntime(), prof.runtimeSeconds.front());
    EXPECT_GT(prof.bestRuntime(), prof.runtimeSeconds.back());
}

TEST(Profiler, HeavyScAssignmentCutsRuntime)
{
    // Paper: assigning heavy load on SCs decreases uptime ~25 %.
    BufferProfiler p = prototypeProfiler();
    RuntimeProfile prof = p.profileScenario(1.0, 1.0, 150.0);
    EXPECT_LT(prof.runtimeSeconds.back(),
              prof.bestRuntime() * 0.9);
}

TEST(Profiler, CyclicUnservedZeroWhenFeasible)
{
    ProfilerConfig cfg;
    cfg.peakDurationS = 600.0;
    cfg.valleyDurationS = 3000.0;
    cfg.valleyChargeW = 45.0;
    BufferProfiler p = prototypeProfiler(cfg);
    // Small mismatch: trivially feasible at r = 1.
    EXPECT_NEAR(p.cyclicUnservedWh(1.0, 1.0, 40.0, 1.0), 0.0, 1e-9);
}

TEST(Profiler, CyclicPenalizesInfeasibleRatio)
{
    ProfilerConfig cfg;
    cfg.peakDurationS = 900.0;
    BufferProfiler p = prototypeProfiler(cfg);
    // r = 1: SC alone cannot hold 140 W for 900 s (28.8 Wh < 35 Wh).
    EXPECT_GT(p.cyclicUnservedWh(1.0, 1.0, 140.0, 1.0), 1.0);
    // The cyclic optimum must do better.
    double best = p.bestCyclicRatio(1.0, 1.0, 140.0);
    EXPECT_LT(p.cyclicUnservedWh(1.0, 1.0, 140.0, best), 1.0);
}

TEST(Profiler, BestCyclicRatioPrefersScOnTies)
{
    BufferProfiler p = prototypeProfiler();
    // Tiny mismatch: every ratio serves fully; tie-break goes SC.
    EXPECT_DOUBLE_EQ(p.bestCyclicRatio(1.0, 1.0, 20.0), 1.0);
}

/**
 * Brute-force reference for bestCyclicRatio: race every candidate to
 * the end through the public cyclicUnservedWh and apply the same
 * SC-side-first, strict `< best - 1e-9` rule.
 */
double
referenceBestCyclicRatio(const BufferProfiler &p, std::size_t steps,
                         double sc_soc, double ba_soc, double w)
{
    double best_r = 1.0;
    double best_score = -1.0;
    for (std::size_t i = 0; i < steps; ++i) {
        double r = 1.0 - static_cast<double>(i) /
                             static_cast<double>(steps - 1);
        double score = p.cyclicUnservedWh(sc_soc, ba_soc, w, r);
        if (best_score < 0.0 || score < best_score - 1e-9) {
            best_score = score;
            best_r = r;
        }
    }
    return best_r;
}

TEST(Profiler, BestCyclicRatioMatchesBruteForce)
{
    struct Scenario
    {
        double sc_soc, ba_soc, w;
    };
    // r = 1 scores zero (up to rounding dust), so every later
    // candidate loses before its first tick; 140 W has an interior
    // optimum; the last scenario leaves every candidate with unserved
    // energy.
    const Scenario scenarios[] = {
        {1.0, 1.0, 20.0}, {1.0, 1.0, 140.0}, {0.2, 0.2, 400.0}};
    for (std::size_t steps : {2u, 5u, 11u}) {
        for (std::size_t cycles : {0u, 1u, 3u}) {
            ProfilerConfig cfg;
            cfg.ratioSteps = steps;
            cfg.cycles = cycles;
            cfg.peakDurationS = 900.0;
            cfg.valleyDurationS = 600.0;
            BufferProfiler p = prototypeProfiler(cfg);
            for (const Scenario &s : scenarios) {
                SCOPED_TRACE(testing::Message()
                             << "steps " << steps << " cycles "
                             << cycles << " w " << s.w);
                EXPECT_EQ(p.bestCyclicRatio(s.sc_soc, s.ba_soc, s.w),
                          referenceBestCyclicRatio(p, steps, s.sc_soc,
                                                   s.ba_soc, s.w));
            }
        }
    }
}

TEST(Profiler, BruteForceScenariosCoverTheirCases)
{
    // Pin the shapes BestCyclicRatioMatchesBruteForce relies on.
    ProfilerConfig cfg;
    cfg.cycles = 1;
    cfg.peakDurationS = 900.0;
    cfg.valleyDurationS = 600.0;
    BufferProfiler p = prototypeProfiler(cfg);
    // Zero up to rounding dust, so best - 1e-9 is not positive.
    EXPECT_LE(p.cyclicUnservedWh(1.0, 1.0, 20.0, 1.0) - 1e-9, 0.0);
    double interior = referenceBestCyclicRatio(p, 11, 1.0, 1.0, 140.0);
    EXPECT_GT(interior, 0.0);
    EXPECT_LT(interior, 1.0);
    for (int i = 0; i <= 10; ++i)
        EXPECT_GT(p.cyclicUnservedWh(0.2, 0.2, 400.0, i / 10.0), 0.0);
}

TEST(Profiler, SeedTablePopulatesGrid)
{
    PowerAllocationTable table;
    ProfilerConfig cfg;
    cfg.ratioSteps = 5;
    cfg.cycles = 1;
    BufferProfiler p = prototypeProfiler(cfg);
    p.seedTable(table, {0.5, 1.0}, {1.0}, {80.0, 160.0});
    EXPECT_EQ(table.size(), 4u);
    for (const auto &e : table.entries()) {
        EXPECT_GE(e.rLambda, 0.0);
        EXPECT_LE(e.rLambda, 1.0);
    }
}

TEST(Profiler, InvalidConfigRejected)
{
    ProfilerConfig cfg;
    cfg.ratioSteps = 1;
    EXPECT_EXIT(prototypeProfiler(cfg), testing::ExitedWithCode(1),
                "ratio");
    EXPECT_EXIT(BufferProfiler(nullptr, nullptr),
                testing::ExitedWithCode(1), "factories");

    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad : {0.0, -1.0, nan, inf}) {
        ProfilerConfig tick;
        tick.tickSeconds = bad;
        EXPECT_EXIT(prototypeProfiler(tick), testing::ExitedWithCode(1),
                    "tickSeconds");
    }
    for (double bad : {-1.0, nan, inf}) {
        ProfilerConfig peak;
        peak.peakDurationS = bad;
        EXPECT_EXIT(prototypeProfiler(peak), testing::ExitedWithCode(1),
                    "peakDurationS");
        ProfilerConfig valley;
        valley.valleyDurationS = bad;
        EXPECT_EXIT(prototypeProfiler(valley),
                    testing::ExitedWithCode(1), "valleyDurationS");
        ProfilerConfig horizon;
        horizon.horizonSeconds = bad;
        EXPECT_EXIT(prototypeProfiler(horizon),
                    testing::ExitedWithCode(1), "horizonSeconds");
    }
    for (double bad : {nan, inf, -inf}) {
        ProfilerConfig charge;
        charge.valleyChargeW = bad;
        EXPECT_EXIT(prototypeProfiler(charge),
                    testing::ExitedWithCode(1), "valleyChargeW");
    }
}

TEST(Profiler, RaceCountersShowTheBound)
{
    ProfilerConfig cfg;
    cfg.cycles = 1;
    cfg.peakDurationS = 900.0;
    cfg.valleyDurationS = 600.0;
    BufferProfiler p = prototypeProfiler(cfg);
    auto &metrics = obs::MetricsRegistry::global();
    auto value = [&metrics](const char *name) {
        return metrics.counter(name).value();
    };
    obs::setTelemetryLevel(obs::TelemetryLevel::Metrics);
    double races = value("core.profiler_races_total");
    double cutoffs = value("core.profiler_race_cutoffs_total");
    double ticks = value("core.profiler_race_ticks_total");
    // r = 1 scores zero: it steps its one peak and no final valley,
    // and the ten candidates after it lose before their first tick.
    EXPECT_EQ(p.bestCyclicRatio(1.0, 1.0, 20.0), 1.0);
    obs::setTelemetryLevel(obs::TelemetryLevel::Off);
    EXPECT_EQ(value("core.profiler_races_total") - races, 11.0);
    EXPECT_EQ(value("core.profiler_race_cutoffs_total") - cutoffs, 10.0);
    EXPECT_EQ(value("core.profiler_race_ticks_total") - ticks, 900.0);
}

} // namespace
} // namespace heb
