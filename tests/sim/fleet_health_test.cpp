/**
 * @file
 * Fleet health aggregator tests: the slim streaming rollup must be
 * byte-identical to a full per-rack run, folded finals must equal
 * the kept SimResults field-for-field, and the live sampling /
 * watch-callback path must fire on schedule.
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/schemes.h"
#include "fault/fault_plan.h"
#include "sim/fleet.h"
#include "sim/fleet_health.h"
#include "util/format.h"
#include "workload/workload_profiles.h"
#include "calm_fleet.h"

namespace heb {
namespace {

/** One fleet run plus the aggregator it fed. */
struct HealthRun
{
    FleetResult result;
    FleetHealthAggregator health;
};

constexpr double kBudget = 3.0 * 260.0;
constexpr double kSampleSeconds = 600.0;

HealthRun
runCalmFleet(bool keep_per_rack)
{
    test::Rig rig = test::calmRig();
    SimConfig cfg = test::hoursConfig(6.0, /*faults=*/true);
    cfg.recordSeries = keep_per_rack;
    HealthRun out;
    FleetOptions options{BudgetPolicy::Static, FleetMode::Event,
                         keep_per_rack};
    options.health = &out.health;
    options.healthSampleSeconds = kSampleSeconds;
    out.result = FleetSimulator(cfg, kBudget, options)
                     .run(rig.specs);
    return out;
}

/** The full (per-rack results kept) run, computed once. */
const HealthRun &
fullRun()
{
    static const HealthRun *run = new HealthRun(runCalmFleet(true));
    return *run;
}

/** The slim (results dropped, series off) run, computed once. */
const HealthRun &
slimRun()
{
    static const HealthRun *run =
        new HealthRun(runCalmFleet(false));
    return *run;
}

TEST(FleetHealth, SlimRollupMatchesFullRunBitForBit)
{
    const HealthRun &full = fullRun();
    const HealthRun &slim = slimRun();
    ASSERT_EQ(full.result.racks.size(), 3u);
    EXPECT_TRUE(slim.result.racks.empty());
    // The whole point of the aggregator: dropping per-rack results
    // and per-tick series must not move a single bit of the rollup.
    EXPECT_EQ(full.health.toJson(), slim.health.toJson());
    EXPECT_EQ(full.health.textSummary(), slim.health.textSummary());
}

TEST(FleetHealth, FoldedFinalsMatchKeptPerRackResults)
{
    const HealthRun &full = fullRun();
    ASSERT_EQ(full.health.rackCount(), full.result.racks.size());
    for (std::size_t r = 0; r < full.result.racks.size(); ++r) {
        const SimResult &rr = full.result.racks[r];
        const FleetHealthAggregator::RackHealth &h =
            full.health.rack(r);
        EXPECT_TRUE(h.finalized);
        EXPECT_EQ(h.name, "rack" + std::to_string(r));
        EXPECT_EQ(h.unservedWh, rr.ledger.unservedWh);
        EXPECT_EQ(h.servedWh, rr.ledger.servedWh());
        EXPECT_EQ(h.downtimeSeconds, rr.downtimeSeconds);
        EXPECT_EQ(h.energyEfficiency, rr.energyEfficiency);
        EXPECT_EQ(h.crashEvents, rr.serverCrashEvents);
        EXPECT_EQ(h.gracefulShedEvents, rr.gracefulShedEvents);
        EXPECT_EQ(h.faultEvents, rr.faultEventsApplied);
        EXPECT_EQ(h.faultsByKind, rr.faultEventsByKind);
        EXPECT_EQ(h.peakDrawW, rr.peakUtilityDrawW);
    }
}

TEST(FleetHealth, FleetFaultRollupSumsRackCounts)
{
    const HealthRun &full = fullRun();
    const std::vector<unsigned long> &fleet =
        full.health.fleetFaultsByKind();
    ASSERT_EQ(fleet.size(), fault::kFaultKindCount);
    unsigned long total = 0;
    for (std::size_t k = 0; k < fleet.size(); ++k) {
        unsigned long sum = 0;
        for (const SimResult &rr : full.result.racks) {
            if (k < rr.faultEventsByKind.size())
                sum += rr.faultEventsByKind[k];
        }
        EXPECT_EQ(fleet[k], sum) << "fault kind " << k;
        total += fleet[k];
    }
    // 6 h of fault injection across three racks must hit something,
    // or every equality above is vacuous.
    EXPECT_GT(total, 0ul);
}

TEST(FleetHealth, MacroEngagementMatchesTickCounts)
{
    const HealthRun &full = fullRun();
    unsigned long advanced =
        full.result.denseTicks + full.result.macroSpanTicks;
    ASSERT_GT(advanced, 0ul);
    EXPECT_EQ(full.health.macroEngagement(),
              static_cast<double>(full.result.macroSpanTicks) /
                  static_cast<double>(advanced));
    EXPECT_GE(full.health.macroEngagement(), 0.0);
    EXPECT_LE(full.health.macroEngagement(), 1.0);
}

TEST(FleetHealth, JsonCarriesEngineTotalsExactly)
{
    const HealthRun &full = fullRun();
    std::string json = full.health.toJson();
    // %.17g exact: the JSON totals are the FleetResult values.
    EXPECT_NE(json.find("\"total_unserved_wh\": " +
                        formatRoundTrip(
                            full.result.totalUnservedWh)),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"facility_peak_draw_w\": " +
                        formatRoundTrip(
                            full.result.facilityPeakDrawW)),
              std::string::npos);
    EXPECT_NE(json.find("\"mean_efficiency\": " +
                        formatRoundTrip(full.result.meanEfficiency)),
              std::string::npos);
    EXPECT_NE(json.find("\"macro_span_ticks\": " +
                        std::to_string(full.result.macroSpanTicks)),
              std::string::npos);
    EXPECT_NE(json.find("\"finalized\": true"), std::string::npos);
}

TEST(FleetHealth, TextSummaryListsRacksAndSchemes)
{
    const HealthRun &full = fullRun();
    std::string text = full.health.textSummary();
    EXPECT_NE(text.find("fleet: 3 racks"), std::string::npos)
        << text;
    EXPECT_NE(text.find("macro-span engagement"),
              std::string::npos);
    for (std::size_t r = 0; r < 3; ++r) {
        EXPECT_NE(text.find("rack" + std::to_string(r)),
                  std::string::npos);
    }
    // Scheme column carries the scheme's own name.
    EXPECT_NE(text.find(full.health.rack(0).scheme),
              std::string::npos);
    EXPECT_FALSE(full.health.rack(0).scheme.empty());
}

struct WatchProbe
{
    unsigned long samples = 0;
    std::size_t racksSeen = 0;
    bool summaryNonEmpty = true;
};

void
countWatchSample(const FleetHealthAggregator &health, void *user)
{
    WatchProbe *probe = static_cast<WatchProbe *>(user);
    ++probe->samples;
    probe->racksSeen = health.rackCount();
    probe->summaryNonEmpty &= !health.textSummary().empty();
}

TEST(FleetHealth, LiveSamplingFiresWatchCallback)
{
    test::Rig rig = test::calmRig();
    FleetHealthAggregator health;
    WatchProbe probe;
    FleetOptions options{BudgetPolicy::Static, FleetMode::Event,
                         false};
    options.health = &health;
    options.healthSampleSeconds = kSampleSeconds;
    options.onHealthSample = countWatchSample;
    options.onHealthSampleUser = &probe;
    FleetSimulator(test::hoursConfig(2.0), kBudget, options)
        .run(rig.specs);

    // 2 h at a 600 s cadence: at least the dense-path floor of
    // samples, and never more than one per simulated second.
    EXPECT_GE(probe.samples, 3ul);
    EXPECT_LE(probe.samples, 7200ul);
    EXPECT_EQ(probe.racksSeen, 3u);
    EXPECT_TRUE(probe.summaryNonEmpty);
}

TEST(FleetHealth, BeginRunResetsPriorState)
{
    FleetHealthAggregator health = fullRun().health;
    ASSERT_EQ(health.rackCount(), 3u);
    health.beginRun({"fresh"}, {"HEB-D"}, 40);
    EXPECT_EQ(health.rackCount(), 1u);
    EXPECT_FALSE(health.rack(0).finalized);
    EXPECT_EQ(health.rack(0).name, "fresh");
    std::string json = health.toJson();
    EXPECT_NE(json.find("\"finalized\": false"),
              std::string::npos);
    EXPECT_EQ(json.find("\"total_unserved_wh\""),
              std::string::npos)
        << "engine totals must not survive beginRun";
}

TEST(FleetHealth, InvalidInputsFatal)
{
    FleetHealthAggregator health;
    EXPECT_EXIT(health.beginRun({"a", "b"}, {"s"}, 10),
                testing::ExitedWithCode(1), "differ");
    health.beginRun({"a"}, {"s"}, 10);
    EXPECT_EXIT(health.rack(1), testing::ExitedWithCode(1),
                "out of range");
}

} // namespace
} // namespace heb
