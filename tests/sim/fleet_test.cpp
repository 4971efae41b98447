/** @file Multi-rack fleet with shared-budget arbitration. */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/schemes.h"
#include "fault/fault_plan.h"
#include "power/solar_array.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "sim/plan_cache.h"
#include "sim/simulator.h"
#include "util/thread_pool.h"
#include "workload/workload_profiles.h"

namespace heb {
namespace {

struct FleetRig
{
    FleetRig()
    {
        cfg.durationSeconds = 4.0 * 3600.0;
        for (const char *w : {"TS", "WC", "MS"}) {
            workloads.push_back(makeWorkload(w));
            schemes.push_back(makeScheme(SchemeKind::HebD));
        }
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            specs.push_back(RackSpec{
                "rack" + std::to_string(i), workloads[i].get(),
                schemes[i].get()});
        }
    }

    SimConfig cfg;
    std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
    std::vector<std::unique_ptr<ManagementScheme>> schemes;
    std::vector<RackSpec> specs;
};

TEST(Fleet, RunsThreeRacks)
{
    FleetRig rig;
    FleetSimulator fleet(rig.cfg, 3.0 * 260.0,
                         BudgetPolicy::Static);
    FleetResult r = fleet.run(rig.specs);
    ASSERT_EQ(r.racks.size(), 3u);
    EXPECT_EQ(r.racks[0].workloadName, "TS");
    EXPECT_GT(r.racks[1].ledger.servedWh(), 0.0);
    EXPECT_GT(r.meanEfficiency, 0.5);
}

TEST(Fleet, FacilityPeakBounded)
{
    FleetRig rig;
    double budget = 3.0 * 260.0;
    FleetSimulator fleet(rig.cfg, budget,
                         BudgetPolicy::Proportional);
    FleetResult r = fleet.run(rig.specs);
    EXPECT_LE(r.facilityPeakDrawW, budget + 1e-6);
}

TEST(Fleet, ProportionalBeatsStaticUnderSkew)
{
    // One hungry rack (TS) next to two quiet ones: moving spare
    // budget to the hungry rack must not hurt, and should reduce
    // total unserved energy.
    FleetRig rig_static;
    FleetSimulator fs(rig_static.cfg, 3.0 * 245.0,
                      BudgetPolicy::Static);
    FleetResult stat = fs.run(rig_static.specs);

    FleetRig rig_prop;
    FleetSimulator fp(rig_prop.cfg, 3.0 * 245.0,
                      BudgetPolicy::Proportional);
    FleetResult prop = fp.run(rig_prop.specs);

    EXPECT_LE(prop.totalUnservedWh, stat.totalUnservedWh + 1e-6);
    EXPECT_LE(prop.totalDowntimeSeconds,
              stat.totalDowntimeSeconds + 1.0);
}

TEST(Fleet, PerRackMetricsIndependent)
{
    FleetRig rig;
    FleetSimulator fleet(rig.cfg, 3.0 * 260.0,
                         BudgetPolicy::Static);
    FleetResult r = fleet.run(rig.specs);
    // The large-peak rack cycles its buffers harder than the
    // media-streaming rack.
    EXPECT_GT(r.racks[0].ledger.bufferToLoadWh(),
              r.racks[2].ledger.bufferToLoadWh());
}

TEST(Fleet, SingleRackEqualsSimulatorWithOutagesFaultsAndSolar)
{
    // A one-rack fleet on the dense engine is the Simulator (event
    // engine here) down to the last ulp, including the supply: the
    // outages, the fault plan's ATS windows and the solar trace.
    SimConfig utility;
    utility.durationSeconds = 4.0 * 3600.0;
    utility.outages = {{3630.0, 310.0}};
    utility.faultInjection = true;
    utility.faultPlan.atsFailuresPerDay = 24.0;
    SimConfig solar;
    solar.durationSeconds = 4.0 * 3600.0;
    solar.solarPowered = true;
    solar.solarParams.sunriseHour = 0.5;
    for (const SimConfig &cfg : {utility, solar}) {
        auto workload = makeWorkload("WC");
        auto sim_scheme = makeScheme(SchemeKind::HebD);
        SimResult sim = Simulator(cfg).run(*workload, *sim_scheme);

        auto fleet_scheme = makeScheme(SchemeKind::HebD);
        FleetResult fleet =
            FleetSimulator(cfg, cfg.budgetW,
                           FleetOptions{BudgetPolicy::Static,
                                        FleetMode::Dense, true})
                .run({RackSpec{"rack0", workload.get(),
                               fleet_scheme.get()}});
        ASSERT_EQ(fleet.racks.size(), 1u);
        EXPECT_EQ(simResultToJson(fleet.racks[0]),
                  simResultToJson(sim))
            << (cfg.solarPowered ? "solar" : "utility");
    }
}

TEST(Fleet, InvalidInputsFatal)
{
    FleetRig rig;
    EXPECT_EXIT(FleetSimulator(rig.cfg, 0.0, BudgetPolicy::Static),
                testing::ExitedWithCode(1), "budget");
    FleetSimulator fleet(rig.cfg, 100.0, BudgetPolicy::Static);
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
    FleetRig rig;
    std::vector<RackSpec> bad = {
        RackSpec{"r0", rig.workloads[0].get(),
                 rig.schemes[0].get()},
        RackSpec{"r1", rig.workloads[1].get(),
                 rig.schemes[0].get()}};
    FleetSimulator fleet(rig.cfg, 2.0 * 260.0,
                         BudgetPolicy::Static);
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

    SyntheticWorkload busy_w(busy, 1), idle_w(idle, 2);
    auto s0 = makeScheme(SchemeKind::HebD);
    auto s1 = makeScheme(SchemeKind::HebD);
    std::vector<RackSpec> specs = {
        RackSpec{"busy", &busy_w, s0.get()},
        RackSpec{"idle", &idle_w, s1.get()}};

    SimConfig cfg;
    cfg.durationSeconds = 4.0 * 3600.0;
    FleetSimulator fleet(cfg, 2.0 * 260.0, BudgetPolicy::Static);
    FleetResult r = fleet.run(specs);
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

/**
 * A calm fleet: jitter-free flat phases, everything under budget —
 * the regime where the event engine should take fleet-wide
 * macro-ticks.
 */
ProfileParams
calmProfile(const char *name, double high_util)
{
    ProfileParams p;
    p.name = name;
    p.peakClass = PeakClass::Large;
    p.highUtil = high_util;
    p.lowUtil = 0.05;
    p.highPhaseS = 900.0;
    p.lowPhaseS = 4500.0;
    p.jitter = 0.0;
    p.diurnalDepth = 0.0;
    p.serverStagger = 0.0;
    return p;
}

struct CalmRig
{
    explicit CalmRig(bool faults, double hours = 6.0)
    {
        cfg.durationSeconds = hours * 3600.0;
        cfg.faultInjection = faults;
        const double utils[3] = {0.30, 0.22, 0.10};
        const char *names[3] = {"CA", "CB", "CC"};
        for (std::size_t i = 0; i < 3; ++i) {
            workloads.push_back(
                std::make_unique<SyntheticWorkload>(
                    calmProfile(names[i], utils[i]), i + 1));
            schemes.push_back(makeScheme(SchemeKind::HebD));
            specs.push_back(RackSpec{"rack" + std::to_string(i),
                                     workloads[i].get(),
                                     schemes[i].get()});
        }
    }

    SimConfig cfg;
    std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
    std::vector<std::unique_ptr<ManagementScheme>> schemes;
    std::vector<RackSpec> specs;
};

/** All per-rack results rendered through the %.17g witness. */
std::string
fleetJson(const FleetResult &r)
{
    std::string out;
    for (const SimResult &rack : r.racks) {
        out += simResultToJson(rack);
        out += '\n';
    }
    return out;
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

TEST(FleetEvent, IdenticalToDenseUnderFaultsProportional)
{
    const double budget = 3.0 * 260.0;
    CalmRig dense_rig(true), event_rig(true);
    FleetResult dense =
        FleetSimulator(dense_rig.cfg, budget,
                       FleetOptions{BudgetPolicy::Proportional,
                                    FleetMode::Dense, true})
            .run(dense_rig.specs);
    FleetResult event =
        FleetSimulator(event_rig.cfg, budget,
                       FleetOptions{BudgetPolicy::Proportional,
                                    FleetMode::Event, true})
            .run(event_rig.specs);
    ASSERT_EQ(dense.racks.size(), event.racks.size());
    for (std::size_t r = 0; r < dense.racks.size(); ++r) {
        EXPECT_EQ(simResultToJson(dense.racks[r]),
                  simResultToJson(event.racks[r]))
            << "rack " << r << " diverged";
    }
    expectAggregatesIdentical(dense, event);
}

TEST(FleetEvent, IdenticalToDenseOnJitteryWorkloads)
{
    // TS/WC/MS jitter every tick, so the event engine rarely (if
    // ever) engages — but it must still be exact, not just when the
    // kernel runs.
    const double budget = 3.0 * 260.0;
    FleetRig dense_rig, event_rig;
    FleetResult dense =
        FleetSimulator(dense_rig.cfg, budget,
                       FleetOptions{BudgetPolicy::Static,
                                    FleetMode::Dense, true})
            .run(dense_rig.specs);
    FleetResult event =
        FleetSimulator(event_rig.cfg, budget,
                       FleetOptions{BudgetPolicy::Static,
                                    FleetMode::Event, true})
            .run(event_rig.specs);
    EXPECT_EQ(fleetJson(dense), fleetJson(event));
    expectAggregatesIdentical(dense, event);
}

TEST(FleetEvent, EngagesOnCalmFleet)
{
    CalmRig rig(false, 8.0);
    FleetResult r =
        FleetSimulator(rig.cfg, 3.0 * 260.0,
                       FleetOptions{BudgetPolicy::Static,
                                    FleetMode::Event, true})
            .run(rig.specs);
    const auto ticks = static_cast<unsigned long>(8.0 * 3600.0);
    EXPECT_EQ(r.denseTicks + r.macroSpanTicks, ticks);
    EXPECT_GT(r.macroSpans, 10ul)
        << "event engine never engaged on a calm fleet";
    // Calm spans should dominate: the engine is the point at scale.
    EXPECT_GT(r.macroSpanTicks, r.denseTicks);
}

TEST(FleetEvent, JobCountDoesNotChangeResults)
{
    const double budget = 3.0 * 260.0;
    ThreadPool::configureGlobal(1);
    CalmRig serial_rig(true);
    FleetResult serial =
        FleetSimulator(serial_rig.cfg, budget,
                       FleetOptions{BudgetPolicy::Proportional,
                                    FleetMode::Event, true})
            .run(serial_rig.specs);
    ThreadPool::configureGlobal(4);
    CalmRig pooled_rig(true);
    FleetResult pooled =
        FleetSimulator(pooled_rig.cfg, budget,
                       FleetOptions{BudgetPolicy::Proportional,
                                    FleetMode::Event, true})
            .run(pooled_rig.specs);
    ThreadPool::configureGlobal(0);
    EXPECT_EQ(fleetJson(serial), fleetJson(pooled));
    expectAggregatesIdentical(serial, pooled);
}

TEST(FleetEvent, DroppedPerRackResultsKeepAggregates)
{
    const double budget = 3.0 * 260.0;
    CalmRig kept_rig(false);
    FleetResult kept =
        FleetSimulator(kept_rig.cfg, budget,
                       FleetOptions{BudgetPolicy::Static,
                                    FleetMode::Event, true})
            .run(kept_rig.specs);
    CalmRig slim_rig(false);
    slim_rig.cfg.recordSeries = false;
    FleetResult slim =
        FleetSimulator(slim_rig.cfg, budget,
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
    SimConfig cfg;
    cfg.durationSeconds = 4.0 * 3600.0;
    cfg.faultInjection = true;
    cfg.faultPlan.atsFailuresPerDay = 0.0;
    cfg.faultPlan.converterTripsPerDay = 48.0;
    cfg.faultPlan.converterRestartSeconds = 1800.0;
    std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
    std::vector<std::unique_ptr<ManagementScheme>> schemes;
    std::vector<RackSpec> specs;
    for (std::size_t i = 0; i < 6; ++i) {
        std::string name = "S" + std::to_string(i);
        workloads.push_back(std::make_unique<SyntheticWorkload>(
            calmProfile(name.c_str(),
                        0.30 + 0.15 * static_cast<double>(i % 4)),
            i + 1));
        schemes.push_back(makeScheme(SchemeKind::HebD));
        specs.push_back(RackSpec{"rack" + std::to_string(i),
                                 workloads[i].get(),
                                 schemes[i].get()});
    }
    // Between the all-low fleet demand and the overlap of two high
    // phases: collisions oversubscribe, low phases leave headroom.
    FleetResult r =
        FleetSimulator(cfg, 205.0 * 6.0,
                       FleetOptions{BudgetPolicy::Proportional,
                                    FleetMode::Event, true})
            .run(specs);

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
 * Bank-idle macro-spans: frequent, long converter trips from the
 * shared fault plan take every rack's buffer stage down in the same
 * windows, and with the stage down a rack's banks are idle by
 * definition. The count is engine output, so it must not depend on
 * the job count either.
 */
TEST(FleetEvent, BankIdleSpansCountedOnFaultyCalmFleet)
{
    auto run = [](std::size_t jobs) {
        ThreadPool::configureGlobal(jobs);
        CalmRig rig(true);
        rig.cfg.recordSeries = false;
        rig.cfg.faultPlan.converterTripsPerDay = 48.0;
        rig.cfg.faultPlan.converterRestartSeconds = 1800.0;
        return FleetSimulator(rig.cfg, 3.0 * 260.0,
                              FleetOptions{BudgetPolicy::Proportional,
                                           FleetMode::Event, false})
            .run(rig.specs);
    };
    FleetResult serial = run(1);
    FleetResult pooled = run(4);
    ThreadPool::configureGlobal(0);
    EXPECT_GT(serial.shardKernelSpans, 0ul);
    EXPECT_LE(serial.shardKernelSpans, serial.macroSpans);
    EXPECT_EQ(serial.shardKernelSpans, pooled.shardKernelSpans);
    EXPECT_EQ(fleetResultToJson(serial), fleetResultToJson(pooled));
}

/** Slim (aggregates-only) event runs on the jittery TS/WC/MS mix
 *  under faults serialize identically at any job count. */
TEST(FleetEvent, SlimJobs1VsNIdentical)
{
    auto run = [](std::size_t jobs) {
        ThreadPool::configureGlobal(jobs);
        SimConfig cfg;
        cfg.durationSeconds = 3.0 * 3600.0;
        cfg.faultInjection = true;
        cfg.recordSeries = false;
        std::vector<std::unique_ptr<ManagementScheme>> schemes;
        std::vector<RackSpec> specs;
        std::vector<std::shared_ptr<const SyntheticWorkload>> plans;
        for (const char *w : {"TS", "WC", "MS"}) {
            plans.push_back(
                SharedPlanCache::global().workload(w, cfg.seed));
            schemes.push_back(makeScheme(SchemeKind::HebD));
            specs.push_back(RackSpec{std::string("rack-") + w,
                                     plans.back().get(),
                                     schemes.back().get()});
        }
        return FleetSimulator(cfg, 3.0 * 260.0,
                              FleetOptions{BudgetPolicy::Proportional,
                                           FleetMode::Event, false})
            .run(specs);
    };
    FleetResult serial = run(1);
    FleetResult pooled = run(4);
    ThreadPool::configureGlobal(0);
    EXPECT_EQ(fleetResultToJson(serial), fleetResultToJson(pooled));
}

/** Two calm racks sharing one feed, per-rack results kept. */
FleetResult
runTwoCalmRacks(const SimConfig &cfg, FleetMode mode,
                std::size_t jobs)
{
    ThreadPool::configureGlobal(jobs);
    std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
    std::vector<std::unique_ptr<ManagementScheme>> schemes;
    std::vector<RackSpec> specs;
    const double utils[2] = {0.30, 0.22};
    const char *names[2] = {"CA", "CB"};
    for (std::size_t i = 0; i < 2; ++i) {
        workloads.push_back(std::make_unique<SyntheticWorkload>(
            calmProfile(names[i], utils[i]), i + 1));
        schemes.push_back(makeScheme(SchemeKind::HebD));
        specs.push_back(RackSpec{"rack" + std::to_string(i),
                                 workloads[i].get(),
                                 schemes[i].get()});
    }
    FleetResult r =
        FleetSimulator(cfg, 2.0 * 260.0,
                       FleetOptions{BudgetPolicy::Proportional, mode,
                                    true})
            .run(specs);
    ThreadPool::configureGlobal(0);
    return r;
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
    SimConfig cfg;
    cfg.durationSeconds = 4.0 * 3600.0;
    // Off the 600 s slot grid, so only the feed horizon stops a span
    // at the outage edges.
    cfg.outages = {{5430.0, 610.0}};
    FleetResult dense = runTwoCalmRacks(cfg, FleetMode::Dense, 1);
    FleetResult event = runTwoCalmRacks(cfg, FleetMode::Event, 1);
    FleetResult pooled = runTwoCalmRacks(cfg, FleetMode::Event, 4);
    expectSupplyCutIn(dense, cfg.outages, cfg.tickSeconds);
    EXPECT_GT(event.macroSpans, 0ul) << "event engine never engaged";
    EXPECT_EQ(fleetJson(event), fleetJson(dense));
    expectAggregatesIdentical(event, dense);
    EXPECT_EQ(fleetResultToJson(pooled), fleetResultToJson(event));
}

TEST(FleetSupply, AtsWindowsCutEveryRack)
{
    // A fault plan of ATS transfer failures only.
    SimConfig cfg;
    cfg.durationSeconds = 4.0 * 3600.0;
    cfg.faultInjection = true;
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

    FleetResult dense = runTwoCalmRacks(cfg, FleetMode::Dense, 1);
    FleetResult event = runTwoCalmRacks(cfg, FleetMode::Event, 4);
    expectSupplyCutIn(dense, windows, cfg.tickSeconds);
    EXPECT_EQ(fleetJson(event), fleetJson(dense));
    expectAggregatesIdentical(event, dense);
}

TEST(FleetSupply, SolarFeedTakesOneRack)
{
    SimConfig cfg;
    cfg.durationSeconds = 2.0 * 3600.0;
    cfg.solarPowered = true;
    EXPECT_EXIT(runTwoCalmRacks(cfg, FleetMode::Dense, 1),
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
    CalmRig rig(cfg.faultInjection);
    rig.cfg = cfg;
    return fleetResultToJson(
        FleetSimulator(rig.cfg, 3.0 * 260.0,
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
