/**
 * @file
 * The differential harness, sole owner of the byte-identity contract
 * dense ≡ event ≡ any lane count ≡ resume. Each scenario runs the
 * dense engine (the oracle) and compares against it at %.17g: the
 * event engine on 1 and on 2 or 4 pool lanes, Simulator::run for a
 * one-rack Static scenario, a checkpointed run and a run resumed from
 * one of its mid-run checkpoints under another lane count. Every
 * rack's ledger must balance too. A scenario is one line (see
 * parseScenario); the fixed corpus holds the configurations of the
 * hand-written identity tests this replaced and must cover every
 * engine path. Seeded random scenarios follow; set
 * HEB_DIFFERENTIAL_SEEDS=FIRST:COUNT to widen the range. A failure
 * prints the scenario's line, ready to paste into the corpus.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/schemes.h"
#include "sim/checkpoint.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "sim/simulator.h"
#include "util/format.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/workload_profiles.h"
#include "calm_fleet.h"
#include "test_paths.h"

namespace heb {
namespace {

/** One rack: a Table 1 abbreviation or "calm<high util>", its
 *  workload seed and its scheme. */
struct RackDef
{
    std::string workload;
    std::uint64_t seed = 1;
    SchemeKind scheme = SchemeKind::HebD;
};

/** A scenario and the engines and lane counts its legs use. */
struct Scenario
{
    SimConfig cfg; //!< every rack's rig and the feed; budgetW per rack
    BudgetPolicy policy = BudgetPolicy::Static;
    bool slim = false; //!< no per-tick series, no per-rack results
    std::vector<RackDef> racks;
    std::size_t lanes = 2; //!< lanes of the second event run
    FleetMode ckptMode = FleetMode::Event;
    double ckptEverySeconds = 0.0;
    std::size_t ckptFrom = 0; //!< oldest first, modulo the count
    std::size_t ckptLanes = 1;
    std::size_t resumeLanes = 2;
    bool expectIdle = false; //!< the event run must take a bank-idle span
};

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string part; std::getline(in, part, sep);)
        out.push_back(part);
    return out;
}

/**
 * Parse a scenario line of key=value tokens; only racks is required:
 *   hours=4 servers=6 (banks scale by servers / 6)
 *   budget=W per rack (260 * servers / 6) policy=static|proportional
 *   outages=START+SECONDS,... faults=1 weak= trips= trip_s= ats=
 *   fault_seed=1 noise=SIGMA ladder=1 solar=1 sunrise= sunset= slim=1
 *   racks=WORKLOAD[@SEED]:SCHEME,... lanes=2
 *   ckpt=event|dense ckpt_every=S (a third of the run) ckpt_from=0
 *   ckpt_lanes=1 resume_lanes=2 expect_idle=1
 * An unknown key or an unparsable number throws.
 */
Scenario
parseScenario(const std::string &line)
{
    std::map<std::string, std::string> kv;
    std::istringstream in(line);
    for (std::string token; in >> token;) {
        std::size_t eq = token.find('=');
        if (eq == std::string::npos)
            throw std::invalid_argument("no '=' in " + token);
        kv[token.substr(0, eq)] = token.substr(eq + 1);
    }
    auto take = [&](const char *key) {
        std::string value = kv.count(key) ? kv[key] : "";
        kv.erase(key);
        return value;
    };
    auto num = [&](const char *key, double fallback) {
        std::string value = take(key);
        return value.empty() ? fallback : std::stod(value);
    };

    Scenario s;
    SimConfig &cfg = s.cfg;
    cfg.durationSeconds = num("hours", 4.0) * 3600.0;
    const double scale = cfg.scaleServers(
        static_cast<std::size_t>(num("servers", 6.0)));
    cfg.budgetW = num("budget", 260.0 * scale);
    if (take("policy") == "proportional")
        s.policy = BudgetPolicy::Proportional;
    for (const std::string &w : split(take("outages"), ',')) {
        std::size_t plus = w.find('+');
        cfg.outages.emplace_back(std::stod(w.substr(0, plus)),
                                 std::stod(w.substr(plus + 1)));
    }
    fault::FaultPlanParams &plan = cfg.faultPlan;
    cfg.faultInjection = num("faults", 0.0) != 0.0;
    plan.weakCellsPerDay = num("weak", plan.weakCellsPerDay);
    plan.converterTripsPerDay = num("trips", plan.converterTripsPerDay);
    plan.converterRestartSeconds =
        num("trip_s", plan.converterRestartSeconds);
    plan.atsFailuresPerDay = num("ats", plan.atsFailuresPerDay);
    cfg.faultSeed = static_cast<std::uint64_t>(num("fault_seed", 1.0));
    cfg.sensorNoiseSigma = num("noise", 0.0);
    cfg.degradationPolicy = num("ladder", 0.0) != 0.0;
    cfg.solarPowered = num("solar", 0.0) != 0.0;
    SolarParams &sun = cfg.solarParams;
    sun.sunriseHour = num("sunrise", sun.sunriseHour);
    sun.sunsetHour = num("sunset", sun.sunsetHour);
    s.slim = num("slim", 0.0) != 0.0;
    cfg.recordSeries = !s.slim;
    for (const std::string &rack : split(take("racks"), ',')) {
        std::size_t colon = rack.rfind(':');
        std::size_t at = std::min(rack.find('@'), colon);
        RackDef def{rack.substr(0, at)};
        if (at < colon)
            def.seed = std::stoull(rack.substr(at + 1, colon - at - 1));
        const std::string scheme = rack.substr(colon + 1);
        const std::vector<SchemeKind> &kinds = allSchemeKinds();
        auto kind = std::find_if(kinds.begin(), kinds.end(), [&](auto k) {
            return scheme == schemeKindName(k);
        });
        if (colon == std::string::npos || kind == kinds.end())
            throw std::invalid_argument("rack " + rack);
        def.scheme = *kind;
        s.racks.push_back(def);
    }
    s.lanes = static_cast<std::size_t>(num("lanes", 2.0));
    if (take("ckpt") == "dense")
        s.ckptMode = FleetMode::Dense;
    s.ckptEverySeconds = num("ckpt_every", cfg.durationSeconds / 3.0);
    s.ckptFrom = static_cast<std::size_t>(num("ckpt_from", 0.0));
    s.ckptLanes = static_cast<std::size_t>(num("ckpt_lanes", 1.0));
    s.resumeLanes = static_cast<std::size_t>(num("resume_lanes", 2.0));
    s.expectIdle = num("expect_idle", 0.0) != 0.0;
    if (!kv.empty() || s.racks.empty())
        throw std::invalid_argument("bad scenario: " + line);
    return s;
}

/**
 * A random scenario line, drawn from @p seed alone. It is built with
 * `<<`, whose operands run left to right, so the draws happen in the
 * same order on every compiler.
 */
std::string
randomScenario(std::uint64_t seed)
{
    SplitMix64 rng(seed);
    auto pick = [&](std::initializer_list<double> values) {
        return values.begin()[rng.below(values.size())];
    };
    auto num = [](double v) { return formatRoundTrip(v); };
    const std::size_t racks = 1 + rng.below(4);
    const double servers = pick({6.0, 6.0, 32.0});
    const double hours = pick({1.0, 1.5, 2.0, 3.0});
    const auto minutes = static_cast<std::uint64_t>(hours * 60.0);
    std::ostringstream line;
    line << "hours=" << num(hours) << " servers=" << num(servers)
         << " budget=" << num(servers * pick({40.0, 260.0 / 6.0, 48.0}));
    if (racks > 1 && rng.below(2))
        line << " policy=proportional";
    for (std::uint64_t i = 0, n = rng.below(3); i < n; ++i)
        line << (i ? "," : " outages=")
             << num(60.0 * static_cast<double>(rng.below(minutes))) << "+"
             << num(30.0 + 30.0 * static_cast<double>(rng.below(20)));
    if (rng.below(2))
        line << " faults=1 weak=" << num(pick({0.0, 0.5, 24.0}))
             << " trips=" << num(pick({0.0, 1.0, 24.0, 48.0}))
             << " trip_s=" << num(pick({180.0, 1800.0}))
             << " ats=" << num(pick({0.0, 1.0, 24.0}))
             << " fault_seed=" << 1 + rng.below(9);
    if (rng.below(4) == 0)
        line << " noise=0.02";
    if (rng.below(4) == 0)
        line << " ladder=1";
    if (racks == 1 && rng.below(6) == 0)
        line << " solar=1 sunrise=" << num(pick({0.0, 0.5}))
             << " sunset=" << num(pick({2.0, 8.0}));
    if (rng.below(5) == 0)
        line << " slim=1";
    const std::vector<std::string> &table1 = allWorkloadNames();
    const std::vector<SchemeKind> &kinds = allSchemeKinds();
    const char *calm[] = {"0.10", "0.15", "0.20", "0.25", "0.30"};
    for (std::size_t r = 0; r < racks; ++r) {
        line << (r ? "," : " racks=");
        if (rng.below(2))
            line << table1[rng.below(table1.size())];
        else
            line << "calm" << calm[rng.below(5)];
        line << "@" << 1 + rng.below(9) << ":"
             << schemeKindName(kinds[rng.below(kinds.size())]);
    }
    const double ckpt_lanes = pick({1.0, 2.0, 4.0});
    line << " lanes=" << num(pick({2.0, 4.0}))
         << " ckpt=" << (rng.below(2) ? "dense" : "event")
         << " ckpt_every="
         << num(60.0 * std::floor(static_cast<double>(minutes) *
                                  pick({0.2, 0.3, 0.45})))
         << " ckpt_from=" << rng.below(3)
         << " ckpt_lanes=" << num(ckpt_lanes) << " resume_lanes="
         << num(ckpt_lanes == 1.0 ? pick({2.0, 4.0}) : 1.0);
    return line.str();
}

/** Fresh workloads and schemes for one run of a scenario. */
test::Rig
scenarioRig(const Scenario &s)
{
    std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
    std::vector<SchemeKind> kinds;
    for (const RackDef &def : s.racks) {
        if (def.workload.rfind("calm", 0) == 0)
            workloads.push_back(std::make_unique<SyntheticWorkload>(
                test::calmProfile(def.workload,
                                  std::stod(def.workload.substr(4))),
                def.seed));
        else
            workloads.push_back(makeWorkload(def.workload, def.seed));
        kinds.push_back(def.scheme);
    }
    return test::Rig(std::move(workloads), kinds);
}

/** One fleet run of @p s on @p lanes pool lanes. */
FleetResult
runFleet(const Scenario &s, FleetMode mode, std::size_t lanes,
         const CheckpointOptions &ckpt = {})
{
    ThreadPool::configureGlobal(lanes);
    test::Rig rig = scenarioRig(s);
    const double budget =
        s.cfg.budgetW * static_cast<double>(s.racks.size());
    FleetResult r = FleetSimulator(s.cfg, budget,
                                   FleetOptions{s.policy, mode, !s.slim})
                        .run(rig.specs, ckpt);
    ThreadPool::configureGlobal(0);
    return r;
}

/** fleetResultToJson without the engine's own counters: what the
 *  two engines must agree on. */
std::string
engineFreeJson(FleetResult r)
{
    const FleetResult blank;
    r.macroSpans = blank.macroSpans;
    r.macroSpanTicks = blank.macroSpanTicks;
    r.denseTicks = blank.denseTicks;
    r.shardKernelSpans = blank.shardKernelSpans;
    r.ffNotCalmTicks = blank.ffNotCalmTicks;
    r.ffHorizonDeclines = blank.ffHorizonDeclines;
    r.ffProbeDeclines = blank.ffProbeDeclines;
    r.ffDeclinedSpanHist = blank.ffDeclinedSpanHist;
    return fleetResultToJson(r);
}

/** Byte equality, reporting the first divergence rather than two
 *  multi-megabyte documents. */
void
expectSame(const std::string &got, const std::string &want,
           const std::string &leg)
{
    if (got == want)
        return;
    auto at = std::mismatch(got.begin(), got.end(), want.begin(),
                            want.end()).first - got.begin();
    auto from = static_cast<std::size_t>(std::max<long>(at - 120, 0));
    ADD_FAILURE() << leg << " diverges from the reference at byte " << at
                  << "\n  got:  ..." << got.substr(from, 200)
                  << "\n  want: ..." << want.substr(from, 200);
}

/** What the event engine did across the scenarios checked so far. */
struct Coverage
{
    unsigned long macroSpans = 0, bankIdleSpans = 0, probeDeclines = 0,
                  horizonDeclines = 0, resumesPastZero = 0;
};

/** Run every leg of @p s against the dense oracle. */
void
checkScenario(const Scenario &s, Coverage &cov)
{
    const auto ticks = static_cast<unsigned long>(
        std::ceil(s.cfg.durationSeconds / s.cfg.tickSeconds));
    const FleetResult dense = runFleet(s, FleetMode::Dense, 1);
    EXPECT_EQ(dense.denseTicks, ticks);
    EXPECT_EQ(dense.racks.size(), s.slim ? 0 : s.racks.size());
    // The balance Simulator runs keep: every watt demanded was served
    // or went unserved, and no flow is negative.
    for (const SimResult &r : dense.racks) {
        const EnergyLedger &l = r.ledger;
        double demand_wh = r.demandW.integralWattHours();
        EXPECT_NEAR(l.servedWh() + l.unservedWh, demand_wh,
                    demand_wh * 0.01);
        EXPECT_GE(std::min({l.sourceToLoadWh, l.bufferToLoadWh(),
                            l.unservedWh, l.chargeConversionLossWh}),
                  0.0);
    }

    const FleetResult event = runFleet(s, FleetMode::Event, 1);
    expectSame(engineFreeJson(event), engineFreeJson(dense),
               "event engine, 1 lane");
    EXPECT_EQ(event.denseTicks + event.macroSpanTicks, ticks);
    EXPECT_LE(event.shardKernelSpans, event.macroSpans);
    if (s.expectIdle) {
        EXPECT_GT(event.shardKernelSpans, 0ul) << "no bank-idle span";
    }
    const std::string event_json = fleetResultToJson(event);
    expectSame(fleetResultToJson(runFleet(s, FleetMode::Event, s.lanes)),
               event_json, "event engine, N lanes");
    cov.macroSpans += event.macroSpans;
    cov.bankIdleSpans += event.shardKernelSpans;
    cov.probeDeclines += event.ffProbeDeclines;
    cov.horizonDeclines += event.ffHorizonDeclines;

    if (s.racks.size() == 1 && s.policy == BudgetPolicy::Static &&
        !s.slim) {
        test::Rig rig = scenarioRig(s);
        SimResult sim = Simulator(s.cfg).run(*rig.specs[0].workload,
                                             *rig.specs[0].scheme);
        expectSame(simResultToJson(sim), simResultToJson(dense.racks[0]),
                   "Simulator::run");
    }

    // Checkpoint, drop every set newer than the chosen one, resume.
    const std::string want = s.ckptMode == FleetMode::Dense
                                 ? fleetResultToJson(dense)
                                 : event_json;
    CheckpointOptions every;
    every.everySimSeconds = s.ckptEverySeconds;
    every.dir = test::uniqueTempDir("differential").string();
    expectSame(fleetResultToJson(runFleet(s, s.ckptMode, s.ckptLanes, every)),
               want, "checkpointed run");
    std::vector<std::uint64_t> sets = listCheckpointTicks(every.dir, "fleet");
    ASSERT_FALSE(sets.empty()) << "no checkpoint written";
    std::sort(sets.begin(), sets.end());
    const std::uint64_t from = sets[s.ckptFrom % sets.size()];
    for (std::uint64_t t : sets)
        if (t > from)
            std::filesystem::remove(checkpointFilePath(every.dir, "fleet", t));

    CheckpointOptions resume;
    resume.dir = every.dir;
    resume.resume = true;
    const LogLevel threshold = logThreshold();
    setLogThreshold(LogLevel::Inform);
    ::testing::internal::CaptureStderr();
    FleetResult resumed = runFleet(s, s.ckptMode, s.resumeLanes, resume);
    std::string log = ::testing::internal::GetCapturedStderr();
    setLogThreshold(threshold);
    expectSame(fleetResultToJson(resumed), want, "resumed run");
    bool restored = log.find("at tick " + std::to_string(from) + " ") !=
                    std::string::npos;
    EXPECT_TRUE(restored) << "did not resume at tick " << from << ": "
                          << log;
    cov.resumesPastZero += restored && from > 0;
    std::filesystem::remove_all(every.dir);
}

/**
 * The fixed corpus: the configurations of the hand-written identity
 * tests this harness replaced. A workload a rig took from the shared
 * plan cache at the run's seed carries @42.
 */
const std::vector<std::pair<const char *, const char *>> kCorpus = {
    // One rack per scheme and profile, outages, the default fault plan.
    {"ff_ba_only_faults",
     "hours=6 outages=7200+300,14400+90 faults=1 racks=WC@42:BaOnly"},
    {"ff_sc_first_faults",
     "hours=6 outages=7200+300,14400+90 faults=1 racks=WC@42:SCFirst"},
    {"ff_ba_first_faults",
     "hours=6 outages=7200+300,14400+90 faults=1 racks=TS@42:BaFirst"},
    {"ff_heb_d_faults",
     "hours=6 outages=7200+300,14400+90 faults=1 racks=TS@42:HEB-D"},
    {"ff_heb_d_degradation_ladder", "hours=6 outages=7200+300,14400+90 "
                                    "faults=1 ladder=1 racks=WS@42:HEB-D"},
    {"ff_solar", "hours=6 solar=1 racks=MS@42:HEB-D"},
    {"ff_calm_rack", "hours=12 outages=21600+120 racks=calm0.30@42:SCFirst"},
    // One rack vs Simulator::run on outages, ATS windows and solar.
    {"single_rack_utility",
     "hours=4 outages=3630+310 faults=1 ats=24 racks=WC:HEB-D"},
    {"single_rack_solar", "hours=4 solar=1 sunrise=0.5 racks=WC:HEB-D"},
    // Calm fleets: faults, macro-spans, long trips with idle banks.
    {"fleet_calm_faults_proportional",
     "hours=6 faults=1 policy=proportional lanes=4 "
     "racks=calm0.30@1:HEB-D,calm0.22@2:HEB-D,calm0.10@3:HEB-D"},
    {"fleet_calm_engages",
     "hours=8 racks=calm0.30@1:HEB-D,calm0.22@2:HEB-D,calm0.10@3:HEB-D"},
    {"fleet_quick_calm",
     "hours=6 servers=32 budget=1440 faults=1 ats=0 policy=proportional "
     "racks=calm0.1@42:HEB-D,calm0.15000000000000002@43:HEB-D,"
     "calm0.2@44:HEB-D,calm0.25@45:HEB-D,calm0.30000000000000004@46:HEB-D,"
     "calm0.1@47:HEB-D,calm0.15000000000000002@48:HEB-D,calm0.2@49:HEB-D"},
    {"fleet_converter_trip_idle_spans",
     "hours=6 faults=1 ats=0 trips=24 trip_s=1800 policy=proportional "
     "expect_idle=1 racks=calm0.30@1:HEB-D,calm0.22@2:HEB-D,calm0.10@3:HEB-D"},
    {"fleet_bank_idle_slim",
     "hours=6 faults=1 trips=48 trip_s=1800 slim=1 policy=proportional "
     "lanes=4 expect_idle=1 "
     "racks=calm0.30@1:HEB-D,calm0.22@2:HEB-D,calm0.10@3:HEB-D"},
    // Jittery Table 1 racks, kept and slim.
    {"fleet_jittery", "hours=4 racks=TS:HEB-D,WC:HEB-D,MS:HEB-D"},
    {"fleet_slim_jittery_faults",
     "hours=3 faults=1 slim=1 policy=proportional lanes=4 "
     "racks=TS@42:HEB-D,WC@42:HEB-D,MS@42:HEB-D"},
    // Kill and resume: dense, event, solar, noise + ladder, a fleet.
    {"resume_dense_faults",
     "hours=2 faults=1 trips=24 weak=24 ckpt=dense racks=TS@42:HEB-D"},
    {"resume_event_faults",
     "hours=2 faults=1 trips=24 weak=24 racks=TS@42:HEB-D"},
    {"resume_solar", "hours=2 solar=1 racks=TS@42:HEB-D"},
    {"resume_noise_degradation", "hours=2 faults=1 trips=24 weak=24 "
                                 "noise=0.02 ladder=1 ckpt=dense "
                                 "racks=TS@42:HEB-D"},
    {"resume_fleet_across_lanes",
     "hours=2 faults=1 trips=24 weak=24 policy=proportional ckpt_lanes=4 "
     "resume_lanes=2 racks=TS@42:HEB-D,WC@43:HEB-D,MS@44:HEB-D"},
    {"deterministic_rerun", "hours=4 racks=TS:HEB-D"},
};

TEST(Differential, FixedCorpus)
{
    Coverage cov;
    for (const auto &[name, line] : kCorpus) {
        SCOPED_TRACE(std::string(name) + ": " + line);
        checkScenario(parseScenario(line), cov);
    }
    EXPECT_GT(cov.macroSpans, 0ul) << "no committed macro-span";
    EXPECT_GT(cov.bankIdleSpans, 0ul) << "no bank-idle span";
    EXPECT_GT(cov.probeDeclines, 0ul) << "no probe decline";
    EXPECT_GT(cov.horizonDeclines, 0ul) << "no horizon decline";
    EXPECT_GT(cov.resumesPastZero, 0ul) << "no resume past tick 0";
}

TEST(Differential, SeededScenarios)
{
    std::uint64_t first = 1, n = 4;
    if (const char *range = std::getenv("HEB_DIFFERENTIAL_SEEDS")) {
        std::vector<std::string> parts = split(range, ':');
        ASSERT_EQ(parts.size(), 2u) << "want FIRST:COUNT, got " << range;
        first = std::stoull(parts[0]);
        n = std::stoull(parts[1]);
    }
    Coverage cov;
    for (std::uint64_t seed = first; seed < first + n; ++seed) {
        const std::string line = randomScenario(seed);
        SCOPED_TRACE("seed " + std::to_string(seed) + ", corpus line: {\"seed" +
                     std::to_string(seed) + "\", \"" + line + "\"},");
        checkScenario(parseScenario(line), cov);
    }
}

} // namespace
} // namespace heb
