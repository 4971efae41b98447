/** @file Full-system integration tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>

#include "fault/fault_plan.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "workload/workload_profiles.h"

namespace heb {
namespace {

SimConfig
shortConfig()
{
    SimConfig cfg;
    cfg.durationSeconds = 4.0 * 3600.0; // keep unit runs fast
    return cfg;
}

TEST(Simulator, RunsAndFillsSeries)
{
    SimConfig cfg = shortConfig();
    auto workload = makeWorkload("WC");
    auto scheme = makeScheme(SchemeKind::HebD);
    Simulator sim(cfg);
    SimResult r = sim.run(*workload, *scheme);

    EXPECT_EQ(r.schemeName, "HEB-D");
    EXPECT_EQ(r.workloadName, "WC");
    EXPECT_EQ(r.demandW.size(),
              static_cast<std::size_t>(cfg.durationSeconds));
    EXPECT_EQ(r.supplyW.size(), r.demandW.size());
    EXPECT_GT(r.completedSlots, 20u);
    EXPECT_EQ(r.scSoc.size(), r.rLambdaPerSlot.size());
}

TEST(Simulator, EnergyLedgerConsistent)
{
    SimConfig cfg = shortConfig();
    auto workload = makeWorkload("TS");
    auto scheme = makeScheme(SchemeKind::HebD);
    SimResult r = Simulator(cfg).run(*workload, *scheme);

    const EnergyLedger &l = r.ledger;
    // Demand integral equals served + unserved (what the servers
    // wanted went somewhere).
    double demand_wh = r.demandW.integralWattHours();
    EXPECT_NEAR(l.servedWh() + l.unservedWh, demand_wh,
                demand_wh * 0.01);
    // All flows non-negative.
    EXPECT_GE(l.sourceToLoadWh, 0.0);
    EXPECT_GE(l.bufferToLoadWh(), 0.0);
    EXPECT_GE(l.unservedWh, 0.0);
    EXPECT_GE(l.chargeConversionLossWh, 0.0);
}

TEST(Simulator, BudgetNeverExceededByUtilityDraw)
{
    SimConfig cfg = shortConfig();
    auto workload = makeWorkload("TS");
    auto scheme = makeScheme(SchemeKind::ScFirst);
    SimResult r = Simulator(cfg).run(*workload, *scheme);
    EXPECT_LE(r.peakUtilityDrawW, cfg.budgetW + 1e-6);
}

TEST(Simulator, BaOnlyGetsEqualTotalCapacity)
{
    // The homogeneous baseline must see the same total buffer energy
    // (paper §6 equal-capacity comparison).
    SimConfig cfg = shortConfig();
    auto workload = makeWorkload("WC");
    auto ba_only = makeScheme(SchemeKind::BaOnly);
    SimResult r = Simulator(cfg).run(*workload, *ba_only);
    // All buffered energy flows through the battery.
    EXPECT_DOUBLE_EQ(r.ledger.scToLoadWh, 0.0);
    EXPECT_DOUBLE_EQ(r.ledger.sourceToScWh, 0.0);
}

TEST(Simulator, HybridUsesScOnSmallPeaks)
{
    SimConfig cfg = shortConfig();
    auto workload = makeWorkload("WC");
    auto heb = makeScheme(SchemeKind::HebD);
    SimResult r = Simulator(cfg).run(*workload, *heb);
    EXPECT_GT(r.ledger.scToLoadWh, r.ledger.batteryToLoadWh);
}

TEST(Simulator, EfficiencyMetricsInRange)
{
    SimConfig cfg = shortConfig();
    for (SchemeKind kind :
         {SchemeKind::BaOnly, SchemeKind::HebD}) {
        auto workload = makeWorkload("DA");
        auto scheme = makeScheme(kind);
        SimResult r = Simulator(cfg).run(*workload, *scheme);
        EXPECT_GE(r.energyEfficiency, 0.0);
        EXPECT_LE(r.energyEfficiency, 1.0);
        EXPECT_GE(r.effectiveEfficiency, 0.0);
        EXPECT_LE(r.effectiveEfficiency, 1.0);
    }
}

TEST(Simulator, SolarRunProducesReu)
{
    SimConfig cfg = shortConfig();
    cfg.solarPowered = true;
    cfg.durationSeconds = 24.0 * 3600.0;
    auto workload = makeWorkload("WS");
    auto scheme = makeScheme(SchemeKind::HebD);
    SimResult r = Simulator(cfg).run(*workload, *scheme);
    EXPECT_GT(r.reu, 0.0);
    EXPECT_LE(r.reu, 1.0);
}

TEST(Simulator, UtilityRunHasZeroReu)
{
    SimConfig cfg = shortConfig();
    auto workload = makeWorkload("WS");
    auto scheme = makeScheme(SchemeKind::HebD);
    SimResult r = Simulator(cfg).run(*workload, *scheme);
    EXPECT_DOUBLE_EQ(r.reu, 0.0);
}

TEST(Simulator, LowBudgetForcesDowntime)
{
    SimConfig cfg = shortConfig();
    cfg.budgetW = 190.0; // under the idle floor of 180 + margin
    auto workload = makeWorkload("TS");
    auto scheme = makeScheme(SchemeKind::BaOnly);
    SimResult r = Simulator(cfg).run(*workload, *scheme);
    EXPECT_GT(r.downtimeSeconds, 0.0);
    EXPECT_GT(r.ledger.unservedWh, 0.0);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    SimConfig cfg = shortConfig();
    auto workload = makeWorkload("TS");
    auto s1 = makeScheme(SchemeKind::HebD);
    auto s2 = makeScheme(SchemeKind::HebD);
    SimResult a = Simulator(cfg).run(*workload, *s1);
    SimResult b = Simulator(cfg).run(*workload, *s2);
    EXPECT_DOUBLE_EQ(a.energyEfficiency, b.energyEfficiency);
    EXPECT_DOUBLE_EQ(a.downtimeSeconds, b.downtimeSeconds);
    EXPECT_DOUBLE_EQ(a.batteryWeightedAh, b.batteryWeightedAh);
}

TEST(Simulator, BatteryLifetimeTracked)
{
    SimConfig cfg = shortConfig();
    auto workload = makeWorkload("TS");
    auto scheme = makeScheme(SchemeKind::BaFirst);
    SimResult r = Simulator(cfg).run(*workload, *scheme);
    EXPECT_GT(r.batteryWeightedAh, 0.0);
    EXPECT_GT(r.batteryLifetimeYears, 0.0);
    EXPECT_LE(r.batteryLifetimeYears, 8.0);
}

TEST(Simulator, InvalidConfigRejected)
{
    SimConfig cfg;
    cfg.numServers = 0;
    EXPECT_EXIT(Simulator{cfg}, testing::ExitedWithCode(1), "server");
    SimConfig cfg2;
    cfg2.durationSeconds = 10.0;
    EXPECT_EXIT(Simulator{cfg2}, testing::ExitedWithCode(1),
                "duration");
}

TEST(Simulator, CapacityRatioHelper)
{
    SimConfig cfg;
    double total = cfg.totalBufferWh();
    cfg.setCapacityRatio(5.0, 5.0);
    EXPECT_NEAR(cfg.scEnergyWh, total / 2.0, 1e-9);
    EXPECT_NEAR(cfg.totalBufferWh(), total, 1e-9);
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

/** One run of @p workload under a fresh @p kind scheme, as JSON. */
std::string
pinnedRun(const SimConfig &cfg, const char *workload, SchemeKind kind,
          const CheckpointOptions &ckpt = {})
{
    auto wl = makeWorkload(workload);
    auto scheme = makeScheme(kind);
    return simResultToJson(Simulator(cfg).run(*wl, *scheme, ckpt));
}

/** The rig variants the digests cover, by name. */
std::map<std::string, SimConfig>
pinnedConfigs()
{
    std::map<std::string, SimConfig> out;
    SimConfig base;
    base.durationSeconds = 3.0 * 3600.0;
    out["utility"] = base;

    SimConfig outages = base;
    outages.outages = {{3600.0, 120.0}, {7800.0, 300.0}};
    out["outages"] = outages;

    SimConfig faults = base;
    faults.durationSeconds = 6.0 * 3600.0;
    faults.faultInjection = true;
    faults.faultPlan.atsFailuresPerDay = 24.0;
    out["faults"] = faults;

    SimConfig degraded = faults;
    degraded.degradationPolicy = true;
    degraded.sensorNoiseSigma = 0.02;
    out["faults_degradation_noise"] = degraded;

    // Sun from the first half hour, so a short run sees generation.
    SimConfig solar = base;
    solar.durationSeconds = 4.0 * 3600.0;
    solar.solarPowered = true;
    solar.solarParams.sunriseHour = 0.5;
    solar.solarParams.sunsetHour = 8.0;
    out["solar"] = solar;

    SimConfig shaving = base;
    shaving.peakShavingTargetW = 235.0;
    out["peak_shaving"] = shaving;

    SimConfig dvfs = base;
    dvfs.dvfsCapping = true;
    dvfs.budgetW = 240.0;
    out["dvfs"] = dvfs;
    return out;
}

TEST(Simulator, ResultDigestsPinned)
{
    // simResultToJson (every series sample at %.17g) of WC and TS
    // under HEB-D and BaOnly, dense and event, folded into one FNV-1a
    // digest per rig variant. Any change to what a run computes
    // moves a digest. Recorded on x86-64 Linux with glibc's libm.
    const std::map<std::string, std::uint64_t> pinned = {
        {"dvfs", 0xdd26fee7b262c909ull},
        {"faults", 0x9bc7b9dae0f240fdull},
        {"faults_degradation_noise", 0x3b05688759febc1bull},
        {"outages", 0xe699156c6a7b81c7ull},
        {"peak_shaving", 0xebc14df86a929b3full},
        {"solar", 0xbb12b8de9ecd6e85ull},
        {"utility", 0x572468bcdf2ad9ddull},
    };
    for (auto &[name, cfg] : pinnedConfigs()) {
        std::uint64_t h = kFnvBasis;
        for (bool ff : {false, true}) {
            cfg.fastForward = ff;
            for (const char *wl : {"WC", "TS"}) {
                for (SchemeKind kind :
                     {SchemeKind::HebD, SchemeKind::BaOnly})
                    h = fnv1a(h, pinnedRun(cfg, wl, kind));
            }
        }
        EXPECT_EQ(h, pinned.at(name))
            << name << ": 0x" << std::hex << h;
    }
}

TEST(Simulator, CheckpointedAndResumedDigestsPinned)
{
    namespace fs = std::filesystem;
    SimConfig cfg = pinnedConfigs().at("faults");
    const std::uint64_t pinned = 0x645593ba7e65f2b0ull;
    auto digest = [](const std::string &json) {
        return fnv1a(kFnvBasis, json);
    };
    EXPECT_EQ(digest(pinnedRun(cfg, "TS", SchemeKind::HebD)), pinned);

    fs::path dir =
        fs::path(::testing::TempDir()) / "heb_sim_pinned_ckpt";
    fs::remove_all(dir);
    fs::create_directories(dir);
    CheckpointOptions every;
    every.everySimSeconds = cfg.durationSeconds / 3.0;
    every.dir = dir.string();
    EXPECT_EQ(digest(pinnedRun(cfg, "TS", SchemeKind::HebD, every)),
              pinned);

    // "Kill" the run after its second snapshot: drop every file of
    // the newest checkpoint (named "<stem>-<tick>[...].ckpt").
    auto tickOf = [](const fs::path &p) {
        std::string name = p.filename().string();
        std::size_t dash = name.find('-');
        return static_cast<std::uint64_t>(
            std::stoull(name.substr(dash + 1)));
    };
    std::uint64_t newest = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        newest = std::max(newest, tickOf(e.path()));
    ASSERT_GT(newest, 0u);
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        if (tickOf(e.path()) == newest)
            fs::remove(e.path());

    CheckpointOptions resume;
    resume.dir = dir.string();
    resume.resume = true;
    ::testing::internal::CaptureStderr();
    std::string resumed = pinnedRun(cfg, "TS", SchemeKind::HebD, resume);
    std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(log.find("no valid"), std::string::npos) << log;
    EXPECT_EQ(digest(resumed), pinned);
}

TEST(Simulator, PinnedFaultRigExercisesAtsWindows)
{
    // The "faults" digests only pin the ATS supply cut if the plan
    // actually opens the switch inside the run.
    SimConfig cfg = pinnedConfigs().at("faults");
    auto wl = makeWorkload("TS");
    auto scheme = makeScheme(SchemeKind::HebD);
    SimResult r = Simulator(cfg).run(*wl, *scheme);
    auto ats = static_cast<std::size_t>(
        fault::FaultKind::AtsTransferFailure);
    ASSERT_GT(r.faultEventsByKind.size(), ats);
    EXPECT_GT(r.faultEventsByKind[ats], 0u);
    EXPECT_DOUBLE_EQ(r.supplyW.min(), 0.0);
}

} // namespace
} // namespace heb
