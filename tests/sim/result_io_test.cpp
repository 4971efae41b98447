/** @file SimResult persistence and config-driven SimConfig. */

#include <cstdio>

#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "sim/result_io.h"
#include "util/csv.h"
#include "test_paths.h"

namespace heb {
namespace {

TEST(ResultIo, SeriesRoundTrip)
{
    SimConfig cfg;
    cfg.durationSeconds = 2.0 * 3600.0;
    SimResult r = runOne(cfg, "WC", SchemeKind::ScFirst);

    std::string prefix = test::uniqueTempPath("result");
    writeResultSeries(r, prefix);

    CsvTable ticks = readCsv(prefix + "_ticks.csv");
    EXPECT_EQ(ticks.rows.size(), r.demandW.size());
    EXPECT_DOUBLE_EQ(ticks.rows[10][1], r.demandW[10]);

    CsvTable slots = readCsv(prefix + "_slots.csv");
    EXPECT_EQ(slots.rows.size(), r.scSoc.size());

    std::remove((prefix + "_ticks.csv").c_str());
    std::remove((prefix + "_slots.csv").c_str());
}

TEST(ResultIo, MetricsTable)
{
    SimConfig cfg;
    cfg.durationSeconds = 2.0 * 3600.0;
    std::vector<SimResult> results;
    results.push_back(runOne(cfg, "WC", SchemeKind::BaOnly));
    results.push_back(runOne(cfg, "WC", SchemeKind::HebD));

    std::string path = test::uniqueTempPath("metrics.csv");
    writeResultMetrics(results, path);
    CsvTable t = readCsv(path);
    EXPECT_EQ(t.rows.size(), 2u);
    EXPECT_EQ(t.columns.front(), "scheme");
    EXPECT_EQ(t.rawRows[0][0], "BaOnly");
    EXPECT_EQ(t.rawRows[1][0], "HEB-D");
    std::remove(path.c_str());
}

TEST(ResultIo, MetricsRoundTripExact)
{
    // The metrics CSV used std::to_string (fixed six decimals),
    // which truncated small magnitudes to 0.000000 and collapsed
    // one-ulp differences. Values must now read back bit-for-bit.
    SimResult r;
    r.schemeName = "X";
    r.workloadName = "Y";
    r.durationSeconds = 7200.0;
    r.energyEfficiency = 0.1 + 0.2;         // 0.30000000000000004
    r.effectiveEfficiency = 1.0 / 3.0;
    r.downtimeSeconds = 1.5e-7;             // to_string -> 0.000000
    r.batteryLifetimeYears = 3.7500000000000004;
    r.reu = 0.9999999999999999;
    r.ledger.sourceToLoadWh = 0.0;
    r.ledger.scToLoadWh = 2.5e-7;
    r.ledger.unservedWh = 1e-7;

    std::string path = test::uniqueTempPath("metrics.csv");
    writeResultMetrics({r}, path);
    CsvTable t = readCsv(path);
    ASSERT_EQ(t.rows.size(), 1u);
    auto col = [&](const char *name) {
        return t.rows[0][t.columnIndex(name)];
    };
    EXPECT_EQ(col("efficiency"), r.energyEfficiency);
    EXPECT_EQ(col("effective_efficiency"), r.effectiveEfficiency);
    EXPECT_EQ(col("downtime_s"), r.downtimeSeconds);
    EXPECT_EQ(col("battery_life_years"), r.batteryLifetimeYears);
    EXPECT_EQ(col("reu"), r.reu);
    EXPECT_EQ(col("buffer_to_load_wh"), r.ledger.bufferToLoadWh());
    EXPECT_EQ(col("unserved_wh"), r.ledger.unservedWh);
    std::remove(path.c_str());
}

TEST(ResultIo, SimConfigFromConfigDefaults)
{
    Config empty = Config::fromString("");
    SimConfig cfg = simConfigFromConfig(empty);
    SimConfig defaults;
    EXPECT_EQ(cfg.numServers, defaults.numServers);
    EXPECT_DOUBLE_EQ(cfg.budgetW, defaults.budgetW);
    EXPECT_DOUBLE_EQ(cfg.durationSeconds, defaults.durationSeconds);
}

TEST(ResultIo, SimConfigFromConfigNegativeServersFatal)
{
    // A negative count must not wrap to SIZE_MAX servers.
    Config c = Config::fromString("servers = -1");
    EXPECT_EXIT(simConfigFromConfig(c), ::testing::ExitedWithCode(1),
                "servers");
    Config zero = Config::fromString("servers = 0");
    EXPECT_EXIT(simConfigFromConfig(zero), ::testing::ExitedWithCode(1),
                "'servers' must be at least 1 \\(got 0\\)");
}

TEST(ResultIo, ServersScaleUnsetBudgetAndBanks)
{
    // servers alone sizes the rig by SimConfig::scaleServers, bit for
    // bit; a key the file sets wins over the rule.
    SimConfig want;
    want.scaleServers(196);
    SimConfig cfg = simConfigFromConfig(Config::fromString("servers = 196"));
    EXPECT_EQ(cfg.numServers, 196u);
    EXPECT_EQ(cfg.budgetW, want.budgetW);
    EXPECT_EQ(cfg.scEnergyWh, want.scEnergyWh);
    EXPECT_EQ(cfg.baEnergyWh, want.baEnergyWh);

    SimConfig set = simConfigFromConfig(
        Config::fromString("servers = 196\nbudget_w = 9000\nsc_wh = 10"));
    EXPECT_EQ(set.budgetW, 9000.0);
    EXPECT_EQ(set.scEnergyWh, 10.0);
    EXPECT_EQ(set.baEnergyWh, want.baEnergyWh);
}

/** Every config key, each away from its default. */
const char *const kEveryKey =
    "servers = 32\ntick_seconds = 2\nslot_seconds = 300\n"
    "duration_hours = 6.5\nbudget_w = 1400\nsolar = true\n"
    "solar_rated_w = 900\nseed = 7\nsc_wh = 60\nba_wh = 140\n"
    "sc_dod = 0.9\nba_dod = 0.6\nbattery_aging = true\n"
    "dvfs_capping = true\nsensor_noise_sigma = 4e-7\n"
    "peak_shaving_target_w = 1200\nfault_injection = true\n"
    "fault_seed = 3\ndegradation_policy = true\nrecord_series = false";

/** @p cfg holds, bit for bit, what kEveryKey sets. */
void
expectEveryKey(const SimConfig &cfg)
{
    EXPECT_EQ(cfg.numServers, 32u);
    EXPECT_EQ(cfg.tickSeconds, 2.0);
    EXPECT_EQ(cfg.slotSeconds, 300.0);
    EXPECT_EQ(cfg.durationSeconds, 6.5 * 3600.0);
    EXPECT_EQ(cfg.budgetW, 1400.0);
    EXPECT_TRUE(cfg.solarPowered);
    EXPECT_EQ(cfg.solarParams.ratedPowerW, 900.0);
    EXPECT_EQ(cfg.seed, 7u);
    EXPECT_EQ(cfg.scEnergyWh, 60.0);
    EXPECT_EQ(cfg.baEnergyWh, 140.0);
    EXPECT_EQ(cfg.scDod, 0.9);
    EXPECT_EQ(cfg.baDod, 0.6);
    EXPECT_TRUE(cfg.batteryAging);
    EXPECT_TRUE(cfg.dvfsCapping);
    EXPECT_EQ(cfg.sensorNoiseSigma, 4e-7);
    EXPECT_EQ(cfg.peakShavingTargetW, 1200.0);
    EXPECT_TRUE(cfg.faultInjection);
    EXPECT_EQ(cfg.faultSeed, 3u);
    EXPECT_TRUE(cfg.degradationPolicy);
    EXPECT_FALSE(cfg.recordSeries);
}

TEST(ResultIo, SimConfigFromConfigOverrides)
{
    expectEveryKey(simConfigFromConfig(Config::fromString(kEveryKey)));
}

TEST(ResultIo, DescribedConfigReplaysUnchanged)
{
    // A manifest's config echo, replayed as a config file, gives back
    // every field: the sigma sits below the six decimals a fixed-point
    // echo keeps, and peak_shaving_target_w must be read, not only
    // written.
    SimConfig cfg = simConfigFromConfig(Config::fromString(kEveryKey));
    std::string text;
    for (const auto &[key, value] : describeSimConfig(cfg))
        text += key + " = " + value + "\n";
    SimConfig replayed = simConfigFromConfig(Config::fromString(text));
    expectEveryKey(replayed);
    EXPECT_EQ(describeSimConfig(replayed), describeSimConfig(cfg));
}

TEST(ResultIo, UnknownConfigKeyFatal)
{
    EXPECT_EXIT(simConfigFromConfig(
                    Config::fromString("durration_hours = 6")),
                ::testing::ExitedWithCode(1),
                "unknown config key 'durration_hours'");
}

} // namespace
} // namespace heb
