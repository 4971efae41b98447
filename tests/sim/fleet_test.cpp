/** @file Multi-rack fleet with shared-budget arbitration. */

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/schemes.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "power/solar_array.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "sim/plan_cache.h"
#include "util/thread_pool.h"
#include "workload/workload_profiles.h"
#include "calm_fleet.h"
#include "test_paths.h"

namespace heb {
namespace {

using test::calmRig;
using test::hoursConfig;
using test::Rig;

/** TS, WC and MS. */
Rig
table1Rig()
{
    std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
    for (const char *w : {"TS", "WC", "MS"})
        workloads.push_back(makeWorkload(w));
    return Rig(std::move(workloads));
}

TEST(Fleet, RunsThreeRacks)
{
    Rig rig = table1Rig();
    FleetSimulator fleet(hoursConfig(4.0), 3.0 * 260.0,
                         FleetOptions{BudgetPolicy::Static});
    FleetResult r = fleet.run(rig.specs);
    ASSERT_EQ(r.racks.size(), 3u);
    EXPECT_EQ(r.racks[0].workloadName, "TS");
    EXPECT_GT(r.racks[1].ledger.servedWh(), 0.0);
    EXPECT_GT(r.meanEfficiency, 0.5);
}

TEST(Fleet, FacilityPeakBounded)
{
    Rig rig = table1Rig();
    double budget = 3.0 * 260.0;
    FleetSimulator fleet(hoursConfig(4.0), budget,
                         FleetOptions{BudgetPolicy::Proportional});
    FleetResult r = fleet.run(rig.specs);
    EXPECT_LE(r.facilityPeakDrawW, budget + 1e-6);
}

TEST(Fleet, ProportionalBeatsStaticUnderSkew)
{
    // One hungry rack (TS) next to two quiet ones: moving spare
    // budget to the hungry rack must not hurt, and should reduce
    // total unserved energy.
    Rig rig_static = table1Rig();
    FleetSimulator fs(hoursConfig(4.0), 3.0 * 245.0,
                      FleetOptions{BudgetPolicy::Static});
    FleetResult stat = fs.run(rig_static.specs);

    Rig rig_prop = table1Rig();
    FleetSimulator fp(hoursConfig(4.0), 3.0 * 245.0,
                      FleetOptions{BudgetPolicy::Proportional});
    FleetResult prop = fp.run(rig_prop.specs);

    EXPECT_LE(prop.totalUnservedWh, stat.totalUnservedWh + 1e-6);
    EXPECT_LE(prop.totalDowntimeSeconds,
              stat.totalDowntimeSeconds + 1.0);
}

TEST(Fleet, PerRackMetricsIndependent)
{
    Rig rig = table1Rig();
    FleetSimulator fleet(hoursConfig(4.0), 3.0 * 260.0,
                         FleetOptions{BudgetPolicy::Static});
    FleetResult r = fleet.run(rig.specs);
    // The large-peak rack cycles its buffers harder than the
    // media-streaming rack.
    EXPECT_GT(r.racks[0].ledger.bufferToLoadWh(),
              r.racks[2].ledger.bufferToLoadWh());
}

TEST(Fleet, InvalidInputsFatal)
{
    Rig rig = table1Rig();
    EXPECT_EXIT(FleetSimulator(hoursConfig(4.0), 0.0, FleetOptions{}),
                testing::ExitedWithCode(1), "budget");
    FleetSimulator fleet(hoursConfig(4.0), 100.0, FleetOptions{});
    EXPECT_EXIT(fleet.run({}), testing::ExitedWithCode(1),
                "at least one rack");
    std::vector<RackSpec> bad = {
        RackSpec{"r0", nullptr, rig.schemes[0].get()}};
    EXPECT_EXIT(fleet.run(bad), testing::ExitedWithCode(1),
                "missing");
}

TEST(Fleet, PolicyNames)
{
    EXPECT_STREQ(budgetPolicyName(BudgetPolicy::Static), "static");
    EXPECT_STREQ(budgetPolicyName(BudgetPolicy::Proportional),
                 "proportional");
    EXPECT_STREQ(fleetModeName(FleetMode::Dense), "dense");
    EXPECT_STREQ(fleetModeName(FleetMode::Event), "event");
}

TEST(Fleet, DuplicateSchemeInstanceFatal)
{
    Rig rig = table1Rig();
    std::vector<RackSpec> bad = {
        RackSpec{"r0", rig.workloads[0].get(),
                 rig.schemes[0].get()},
        RackSpec{"r1", rig.workloads[1].get(),
                 rig.schemes[0].get()}};
    FleetSimulator fleet(hoursConfig(4.0), 2.0 * 260.0, FleetOptions{});
    EXPECT_EXIT(fleet.run(bad), testing::ExitedWithCode(1),
                "shares a scheme");
}

/**
 * Two deliberately asymmetric racks: one loaded, one near-idle. The
 * fleet mean efficiency must be the served-energy-weighted mean, not
 * the unweighted arithmetic mean the near-idle rack used to bias.
 */
TEST(Fleet, MeanEfficiencyIsServedEnergyWeighted)
{
    ProfileParams busy;
    busy.name = "BUSY";
    busy.peakClass = PeakClass::Large;
    busy.highUtil = 0.95;
    busy.lowUtil = 0.85;
    ProfileParams idle = busy;
    idle.name = "IDLE";
    idle.highUtil = 0.05;
    idle.lowUtil = 0.02;

    std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
    workloads.push_back(std::make_unique<SyntheticWorkload>(busy, 1));
    workloads.push_back(std::make_unique<SyntheticWorkload>(idle, 2));
    Rig rig(std::move(workloads));
    FleetResult r = FleetSimulator(hoursConfig(4.0), 2.0 * 260.0,
                                   FleetOptions{})
                        .run(rig.specs);
    ASSERT_EQ(r.racks.size(), 2u);

    double e0 = r.racks[0].energyEfficiency;
    double e1 = r.racks[1].energyEfficiency;
    double s0wh = r.racks[0].ledger.servedWh();
    double s1wh = r.racks[1].ledger.servedWh();
    // The 30 W/server idle floor bounds how asymmetric equal-sized
    // racks can get; ~1.5x served energy is plenty to expose an
    // unweighted mean.
    ASSERT_GT(s0wh, 1.3 * s1wh) << "racks not asymmetric enough";

    EXPECT_DOUBLE_EQ(r.meanEfficiencyUnweighted, (e0 + e1) / 2.0);
    EXPECT_DOUBLE_EQ(r.meanEfficiency,
                     (e0 * s0wh + e1 * s1wh) / (s0wh + s1wh));
    EXPECT_DOUBLE_EQ(r.totalServedWh, s0wh + s1wh);
}

void
expectAggregatesIdentical(const FleetResult &a, const FleetResult &b)
{
    // Bitwise: the event engine claims exactness, not closeness.
    EXPECT_EQ(a.facilityPeakDrawW, b.facilityPeakDrawW);
    EXPECT_EQ(a.totalUnservedWh, b.totalUnservedWh);
    EXPECT_EQ(a.totalServedWh, b.totalServedWh);
    EXPECT_EQ(a.totalDowntimeSeconds, b.totalDowntimeSeconds);
    EXPECT_EQ(a.meanEfficiency, b.meanEfficiency);
    EXPECT_EQ(a.meanEfficiencyUnweighted,
              b.meanEfficiencyUnweighted);
}

/**
 * The quick calm fleet: 8 racks x 32 servers x 6 h on calm phases
 * whose highs spread over [0.10, 0.30], banks scaled to the rack,
 * proportional arbitration and one fault plan (no ATS failures)
 * shared by every rack. The engine's coverage is pinned tick for
 * tick: the counts are deterministic, so a horizon or probe that
 * stops engaging fails here rather than in a timing ratio. The
 * differential harness's fleet_quick_calm case checks the run
 * against the dense engine.
 */
TEST(FleetEvent, QuickCalmFleetExactAndCovered)
{
    constexpr std::size_t kRacks = 8;
    SimConfig cfg;
    cfg.scaleServers(32);
    cfg.durationSeconds = 6.0 * 3600.0;
    cfg.faultInjection = true;
    cfg.faultPlan.atsFailuresPerDay = 0.0;
    const double budget = 45.0 * 32.0 * kRacks;

    std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
    for (std::size_t r = 0; r < kRacks; ++r)
        workloads.push_back(std::make_unique<SyntheticWorkload>(
            test::calmProfile("R" + std::to_string(r),
                              0.10 + 0.05 * static_cast<double>(r % 5)),
            cfg.seed + r));
    Rig rig(std::move(workloads));
    FleetResult event =
        FleetSimulator(cfg, budget,
                       FleetOptions{BudgetPolicy::Proportional,
                                    FleetMode::Event, true})
            .run(rig.specs);

    EXPECT_EQ(event.macroSpans, 41ul);
    EXPECT_EQ(event.macroSpanTicks, 21559ul);
    EXPECT_EQ(event.denseTicks, 41ul);
}

/**
 * Demand evaluations of the one-rack calm run below, counted before
 * needs were pipelined into the tick fan-out.
 */
constexpr std::uint64_t kOneRackDemandCalls = 80;

/** Forwards a workload, counting demand evaluations (batched calls). */
class DemandCountingWorkload final : public Workload
{
  public:
    explicit DemandCountingWorkload(const Workload &inner)
        : inner_(inner)
    {
    }

    const std::string &name() const override { return inner_.name(); }

    PeakClass peakClass() const override { return inner_.peakClass(); }

    double
    utilization(std::size_t server_index,
                double time_seconds) const override
    {
        return inner_.utilization(server_index, time_seconds);
    }

    void
    utilizations(double time_seconds, std::span<double> out,
                 UtilizationCache &cache) const override
    {
        calls_.fetch_add(1, std::memory_order_relaxed);
        inner_.utilizations(time_seconds, out, cache);
    }

    double
    nextChangeTime(double now_seconds,
                   std::size_t num_servers) const override
    {
        return inner_.nextChangeTime(now_seconds, num_servers);
    }

    std::uint64_t calls() const { return calls_.load(); }

  private:
    const Workload &inner_;
    mutable std::atomic<std::uint64_t> calls_{0};
};

/**
 * Each rack's tick task also computes its need for the next tick; a
 * separate pass runs instead on the first tick, on a tick whose
 * checkpoint is due and on the first tick of a resumed run. Either
 * way a dense run evaluates each rack's demand exactly once per
 * tick: never twice, never skipped, never past the last tick.
 */
TEST(Fleet, DenseRunEvaluatesDemandOncePerRackTick)
{
    const auto ticks = static_cast<std::uint64_t>(2.0 * 3600.0);
    const std::string dir = test::uniqueTempDir("demand").string();
    auto run = [&](const CheckpointOptions &ckpt) {
        Rig rig = calmRig();
        std::vector<std::unique_ptr<DemandCountingWorkload>> counted;
        for (RackSpec &spec : rig.specs) {
            counted.push_back(
                std::make_unique<DemandCountingWorkload>(*spec.workload));
            spec.workload = counted.back().get();
        }
        FleetSimulator(hoursConfig(2.0, /*faults=*/true), 3.0 * 260.0,
                       FleetOptions{BudgetPolicy::Proportional,
                                    FleetMode::Dense, true})
            .run(rig.specs, ckpt);
        std::vector<std::uint64_t> calls;
        for (const auto &c : counted)
            calls.push_back(c->calls());
        return calls;
    };

    ThreadPool::configureGlobal(2);
    CheckpointOptions every;
    every.everySimSeconds = 1800.0;
    every.dir = dir;
    EXPECT_EQ(run(every), std::vector<std::uint64_t>(3, ticks));

    // Resume from the second-newest checkpoint: only the remaining
    // ticks evaluate demand.
    std::vector<std::uint64_t> saved = listCheckpointTicks(dir, "fleet");
    ASSERT_GE(saved.size(), 2u);
    std::filesystem::remove(
        checkpointFilePath(dir, "fleet", saved.front()));
    CheckpointOptions resume;
    resume.dir = dir;
    resume.resume = true;
    EXPECT_EQ(run(resume),
              std::vector<std::uint64_t>(3, ticks - saved[1]));
    ThreadPool::configureGlobal(0);
    std::filesystem::remove_all(dir);
}

/**
 * A one-rack run fans out inline, so it keeps the separate needs
 * pass: demand is evaluated once per dense tick and once per probe
 * that reaches the demand check, and a committed span discards no
 * need computed ahead. The count is the one the engine made before
 * needs were pipelined, whatever the shared pool's width.
 */
TEST(FleetEvent, OneRackRunEvaluatesDemandOncePerTickAndProbe)
{
    auto run = [](std::size_t jobs) {
        ThreadPool::configureGlobal(jobs);
        Rig rig = calmRig();
        DemandCountingWorkload counted(*rig.specs[0].workload);
        std::vector<RackSpec> one{rig.specs[0]};
        one[0].workload = &counted;
        FleetResult r = FleetSimulator(hoursConfig(6.0), 260.0,
                                       FleetOptions{BudgetPolicy::Static,
                                                    FleetMode::Event,
                                                    true})
                            .run(one);
        EXPECT_GT(r.macroSpans, 0ul);
        EXPECT_EQ(r.ffProbeDeclines, 0ul);
        EXPECT_EQ(counted.calls(), r.denseTicks + r.macroSpans);
        return counted.calls();
    };
    const std::uint64_t narrow = run(1);
    const std::uint64_t wide = run(4);
    ThreadPool::configureGlobal(0);
    EXPECT_EQ(narrow, wide);
    EXPECT_EQ(narrow, kOneRackDemandCalls);
}

TEST(FleetEvent, DroppedPerRackResultsKeepAggregates)
{
    const double budget = 3.0 * 260.0;
    Rig kept_rig = calmRig();
    FleetResult kept =
        FleetSimulator(hoursConfig(6.0), budget,
                       FleetOptions{BudgetPolicy::Static,
                                    FleetMode::Event, true})
            .run(kept_rig.specs);
    Rig slim_rig = calmRig();
    SimConfig slim_cfg = hoursConfig(6.0);
    slim_cfg.recordSeries = false;
    FleetResult slim =
        FleetSimulator(slim_cfg, budget,
                       FleetOptions{BudgetPolicy::Static,
                                    FleetMode::Event, false})
            .run(slim_rig.specs);
    EXPECT_TRUE(slim.racks.empty());
    expectAggregatesIdentical(kept, slim);
}

/**
 * A contended fleet under frequent long converter trips: high-phase
 * collisions oversubscribe the facility and trip edges shorten
 * horizons, so every fast-forward decline reason sees traffic. The
 * decline counters are engine output, so they must be populated,
 * self-consistent and rendered into the result witness.
 */
TEST(FleetEvent, DeclineCountersOnContendedFaultyFleet)
{
    SimConfig cfg = hoursConfig(4.0, /*faults=*/true);
    cfg.faultPlan.atsFailuresPerDay = 0.0;
    cfg.faultPlan.converterTripsPerDay = 48.0;
    cfg.faultPlan.converterRestartSeconds = 1800.0;
    std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
    for (std::size_t i = 0; i < 6; ++i)
        workloads.push_back(std::make_unique<SyntheticWorkload>(
            test::calmProfile("S" + std::to_string(i),
                              0.30 + 0.15 * static_cast<double>(i % 4)),
            i + 1));
    Rig rig(std::move(workloads));
    // Between the all-low fleet demand and the overlap of two high
    // phases: collisions oversubscribe, low phases leave headroom.
    FleetResult r =
        FleetSimulator(cfg, 205.0 * 6.0,
                       FleetOptions{BudgetPolicy::Proportional,
                                    FleetMode::Event, true})
            .run(rig.specs);

    EXPECT_GT(r.ffNotCalmTicks, 0ul);
    EXPECT_GT(r.ffHorizonDeclines, 0ul);
    EXPECT_GT(r.ffProbeDeclines, 0ul);
    // Every probe decline lands in exactly one histogram bin.
    ASSERT_EQ(r.ffDeclinedSpanHist.size(), kFfDeclineHistBins);
    unsigned long hist_total = 0;
    for (unsigned long c : r.ffDeclinedSpanHist)
        hist_total += c;
    EXPECT_EQ(hist_total, r.ffProbeDeclines);

    std::string json = fleetResultToJson(r);
    for (const char *key :
         {"\"ff_not_calm_ticks\"", "\"ff_horizon_declines\"",
          "\"ff_probe_declines\"", "\"ff_declined_span_hist\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

/**
 * Horizon declines go to the first rack whose horizon is the fleet
 * minimum. In [PR, WS, MS] the diurnal WS rack answers "no guarantee"
 * (its horizon is now) on every calm tick, while PR's jitter grid
 * always lies ahead, so rack 1 owns every horizon decline and the
 * later MS rack, also diurnal, owns none.
 */
TEST(FleetEvent, HorizonDeclinesGoToFirstRackAtTheMinimum)
{
    SimConfig cfg = hoursConfig(2.0);
    std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
    std::vector<std::unique_ptr<ManagementScheme>> schemes;
    std::vector<RackSpec> specs;
    const char *names[3] = {"PR", "WS", "MS"};
    for (std::size_t i = 0; i < 3; ++i) {
        workloads.push_back(makeWorkload(names[i]));
        schemes.push_back(makeScheme(SchemeKind::HebD));
        specs.push_back(RackSpec{std::string("horizon_") + names[i],
                                 workloads[i].get(), schemes[i].get()});
    }
    auto horizon_declines = [&](std::size_t rack) {
        return obs::MetricsRegistry::global()
            .counter("fleet.ff_decline_total",
                     {{"rack", specs[rack].name}, {"reason", "horizon"}})
            .value();
    };
    double before[3];
    for (std::size_t r = 0; r < 3; ++r)
        before[r] = horizon_declines(r);

    obs::setTelemetryLevel(obs::TelemetryLevel::Metrics);
    FleetResult result =
        FleetSimulator(cfg, 3.0 * 1000.0,
                       FleetOptions{BudgetPolicy::Proportional,
                                    FleetMode::Event, true})
            .run(specs);
    obs::setTelemetryLevel(obs::TelemetryLevel::Off);

    ASSERT_GT(result.ffHorizonDeclines, 0ul);
    EXPECT_EQ(result.macroSpans, 0ul);
    EXPECT_EQ(horizon_declines(0) - before[0], 0.0);
    EXPECT_EQ(horizon_declines(1) - before[1],
              static_cast<double>(result.ffHorizonDeclines));
    EXPECT_EQ(horizon_declines(2) - before[2], 0.0);
}

/** Two calm racks on @p cfg's feed, per-rack results kept. */
FleetResult
runTwoCalmRacks(const SimConfig &cfg, FleetMode mode)
{
    Rig rig = calmRig(2);
    return FleetSimulator(cfg, 2.0 * 260.0,
                          FleetOptions{BudgetPolicy::Proportional, mode,
                                       true})
        .run(rig.specs);
}

/**
 * Every rack's supply sample is 0 exactly at the ticks inside
 * @p windows ((start, duration) seconds) and positive elsewhere.
 */
void
expectSupplyCutIn(const FleetResult &r,
                  const std::vector<std::pair<double, double>> &windows,
                  double dt)
{
    for (std::size_t k = 0; k < r.racks.size(); ++k) {
        const std::vector<double> &supply =
            r.racks[k].supplyW.samples();
        ASSERT_FALSE(supply.empty());
        std::size_t cut = 0, wrong = 0;
        for (std::size_t i = 0; i < supply.size(); ++i) {
            double t = static_cast<double>(i) * dt;
            bool inside = false;
            for (auto [start, duration] : windows)
                inside |= t >= start && t < start + duration;
            cut += inside;
            wrong += inside ? supply[i] != 0.0 : !(supply[i] > 0.0);
        }
        EXPECT_GT(cut, 0u) << "rack " << k << ": no tick in a window";
        EXPECT_EQ(wrong, 0u) << "rack " << k;
    }
}

TEST(FleetSupply, OutageCutsEveryRackOnEveryEngine)
{
    SimConfig cfg = hoursConfig(4.0);
    // Off the 600 s slot grid, so only the feed horizon stops a span
    // at the outage edges.
    cfg.outages = {{5430.0, 610.0}};
    for (FleetMode mode : {FleetMode::Dense, FleetMode::Event}) {
        FleetResult r = runTwoCalmRacks(cfg, mode);
        expectSupplyCutIn(r, cfg.outages, cfg.tickSeconds);
        EXPECT_EQ(r.macroSpans > 0, mode == FleetMode::Event);
    }
}

TEST(FleetSupply, AtsWindowsCutEveryRack)
{
    // A fault plan of ATS transfer failures only.
    SimConfig cfg = hoursConfig(4.0, /*faults=*/true);
    cfg.faultPlan = fault::FaultPlanParams{};
    cfg.faultPlan.weakCellsPerDay = 0.0;
    cfg.faultPlan.scAgingEventsPerDay = 0.0;
    cfg.faultPlan.converterTripsPerDay = 0.0;
    cfg.faultPlan.sensorDropoutsPerDay = 0.0;
    cfg.faultPlan.sensorJitterEventsPerDay = 0.0;
    cfg.faultPlan.atsFailuresPerDay = 24.0;
    std::vector<std::pair<double, double>> windows;
    for (const fault::FaultEvent &ev :
         fault::FaultPlan::generate(cfg.faultPlan, cfg.durationSeconds,
                                    cfg.faultSeed)
             .ofKind(fault::FaultKind::AtsTransferFailure))
        windows.emplace_back(ev.startSeconds, ev.durationSeconds);
    ASSERT_FALSE(windows.empty());

    for (FleetMode mode : {FleetMode::Dense, FleetMode::Event})
        expectSupplyCutIn(runTwoCalmRacks(cfg, mode), windows,
                          cfg.tickSeconds);
}

TEST(FleetSupply, SolarFeedTakesOneRack)
{
    SimConfig cfg = hoursConfig(2.0);
    cfg.solarPowered = true;
    EXPECT_EXIT(runTwoCalmRacks(cfg, FleetMode::Dense),
                testing::ExitedWithCode(1), "solarPowered");
}

/** FNV-1a (64-bit) folded over @p text, continuing from @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const std::string &text)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** Three calm racks on @p cfg's feed, per-rack results kept. */
std::string
pinnedFleetRun(const SimConfig &cfg, FleetMode mode,
               BudgetPolicy policy)
{
    Rig rig = calmRig();
    return fleetResultToJson(
        FleetSimulator(cfg, 3.0 * 260.0,
                       FleetOptions{policy, mode, true})
            .run(rig.specs));
}

TEST(Fleet, ResultDigestsPinned)
{
    // fleetResultToJson (aggregates, engine counters and every rack's
    // series at %.17g) of three calm racks, dense and event, Static
    // and Proportional, folded into one FNV-1a digest per feed. The
    // engine counters pin the fleet horizon the feed reports: an
    // outage or ATS edge that moved would move macro_spans or a
    // decline counter. Recorded on x86-64 Linux with glibc's libm.
    SimConfig utility;
    utility.durationSeconds = 6.0 * 3600.0;
    // Off the 600 s slot grid, so the feed's horizon ends spans.
    utility.outages = {{5430.0, 610.0}, {14170.0, 95.0}};

    SimConfig ats;
    ats.durationSeconds = 6.0 * 3600.0;
    ats.faultInjection = true;
    ats.faultPlan.atsFailuresPerDay = 24.0;

    // An outage that starts inside the first ATS window and outlasts
    // it, and one that swallows the second window whole.
    SimConfig overlap = ats;
    std::vector<fault::FaultEvent> windows =
        fault::FaultPlan::generate(ats.faultPlan, ats.durationSeconds,
                                   ats.faultSeed)
            .ofKind(fault::FaultKind::AtsTransferFailure);
    ASSERT_GE(windows.size(), 2u);
    overlap.outages = {
        {windows[0].startSeconds + 0.5 * windows[0].durationSeconds,
         windows[0].durationSeconds + 300.0},
        {windows[1].startSeconds - 120.0,
         windows[1].durationSeconds + 240.0}};

    const std::map<std::string, std::uint64_t> pinned = {
        {"ats", 0xb8624639c30fe3d3ull},
        {"outage_over_ats", 0x4d1fa9ded4b92f55ull},
        {"utility", 0x8af8e0e24ff44a4full},
    };
    const std::map<std::string, SimConfig> feeds = {
        {"ats", ats}, {"outage_over_ats", overlap}, {"utility", utility}};
    for (const auto &[name, cfg] : feeds) {
        std::uint64_t h = kFnvBasis;
        for (FleetMode mode : {FleetMode::Dense, FleetMode::Event})
            for (BudgetPolicy policy :
                 {BudgetPolicy::Static, BudgetPolicy::Proportional}) {
                std::string json = pinnedFleetRun(cfg, mode, policy);
                if (mode == FleetMode::Event) {
                    EXPECT_EQ(json.find("\"macro_spans\": 0,"),
                              std::string::npos)
                        << name << ": event engine never engaged";
                }
                h = fnv1a(h, json);
            }
        EXPECT_EQ(h, pinned.at(name))
            << name << ": 0x" << std::hex << h;
    }

    // One solar-fed rack: the feed's harvest meter reaches the
    // result through spilled generation and REU.
    SimConfig solar;
    solar.durationSeconds = 4.0 * 3600.0;
    solar.solarPowered = true;
    solar.solarParams.sunriseHour = 0.5;
    solar.solarParams.sunsetHour = 8.0;
    auto workload = makeWorkload("WS");
    std::uint64_t h = kFnvBasis;
    for (FleetMode mode : {FleetMode::Dense, FleetMode::Event}) {
        auto scheme = makeScheme(SchemeKind::HebD);
        h = fnv1a(h, fleetResultToJson(
                         FleetSimulator(solar, 0.0,
                                        FleetOptions{BudgetPolicy::Static,
                                                     mode, true})
                             .run({RackSpec{"rack0", workload.get(),
                                            scheme.get()}})));
    }
    EXPECT_EQ(h, 0xdd739f8284994b45ull) << "solar: 0x" << std::hex << h;
}

/** The cache-shared solar trace is the privately-generated trace. */
TEST(PlanSharing, SharedSolarTraceBitIdentical)
{
    SimConfig cfg;
    SolarArray priv(cfg.solarParams, 6.0 * 3600.0, 1.0, cfg.seed);
    auto shared = SharedPlanCache::global().solarTrace(
        cfg.solarParams, 6.0 * 3600.0, 1.0, cfg.seed);
    ASSERT_EQ(shared->size(), priv.trace().size());
    for (std::size_t i = 0; i < shared->size(); ++i)
        ASSERT_EQ((*shared)[i], priv.trace()[i]) << "sample " << i;
    // Second lookup is a hit on the same immutable object.
    auto again = SharedPlanCache::global().solarTrace(
        cfg.solarParams, 6.0 * 3600.0, 1.0, cfg.seed);
    EXPECT_EQ(again.get(), shared.get());
}

/** The cache-shared workload plan (what heb_fleet racks share)
 *  behaves as a private instance. */
TEST(PlanSharing, SharedWorkloadPlanMatchesPrivate)
{
    auto shared = SharedPlanCache::global().workload("TS", 42);
    auto priv = makeWorkload("TS", 42);
    for (double t : {0.0, 17.0, 333.0, 4096.0, 86399.0}) {
        for (std::size_t s : {std::size_t{0}, std::size_t{3}})
            ASSERT_EQ(shared->utilization(s, t),
                      priv->utilization(s, t));
    }
    auto again = SharedPlanCache::global().workload("TS", 42);
    EXPECT_EQ(again.get(), shared.get());
    // A different seed is a different plan.
    auto other = SharedPlanCache::global().workload("TS", 43);
    EXPECT_NE(other.get(), shared.get());
}

} // namespace
} // namespace heb
