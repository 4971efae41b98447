/**
 * @file
 * Checkpoint/restore tests: the kill-and-resume byte-identity
 * witness (single rack dense, fast-forward, solar; fleet event mode
 * across job counts) plus rejection of corrupt, truncated and
 * version-skewed files and newest-valid selection.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/schemes.h"
#include "sim/checkpoint.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "sim/simulator.h"
#include "sim/plan_cache.h"
#include "util/thread_pool.h"
#include "workload/workload_profiles.h"

namespace heb {
namespace {

namespace fs = std::filesystem;

/** Fresh empty checkpoint directory under the gtest temp root. */
std::string
freshDir(const std::string &tag)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("heb_ckpt_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** Rig shared by the witnesses: short, faulty, 1 s ticks. */
SimConfig
witnessConfig()
{
    SimConfig cfg;
    cfg.durationSeconds = 2.0 * 3600.0;
    cfg.faultInjection = true;
    cfg.faultPlan.converterTripsPerDay = 24.0;
    cfg.faultPlan.weakCellsPerDay = 24.0;
    cfg.fastForward = false;
    return cfg;
}

/** One full run, fresh scheme, optional checkpointing knobs. */
std::string
runToJson(const SimConfig &cfg, const CheckpointOptions &ckpt = {})
{
    auto workload = SharedPlanCache::global().workload("TS", cfg.seed);
    auto scheme = makeScheme(SchemeKind::HebD);
    Simulator sim(cfg);
    return simResultToJson(sim.run(*workload, *scheme, ckpt));
}

/**
 * The headline witness: run uninterrupted; run again writing
 * checkpoints; simulate a mid-run kill by deleting the newest
 * checkpoint and resuming from the surviving earlier one. All three
 * final results must serialize byte-identically at %.17g.
 */
void
expectResumeByteIdentical(const SimConfig &cfg, const std::string &tag)
{
    const std::string reference = runToJson(cfg);

    CheckpointOptions every;
    every.everySimSeconds = cfg.durationSeconds / 3.0;
    every.dir = freshDir(tag);
    EXPECT_EQ(runToJson(cfg, every), reference)
        << "checkpointing perturbed the run";

    // "Kill" the run between the 1/3 and 2/3 snapshots: drop the
    // newest checkpoint so resume restarts from mid-run state.
    std::vector<std::uint64_t> ticks =
        listCheckpointTicks(every.dir, "sim");
    ASSERT_GE(ticks.size(), 2u);
    fs::remove(checkpointFilePath(every.dir, "sim", ticks.front()));

    CheckpointOptions resume;
    resume.dir = every.dir;
    resume.resume = true;
    EXPECT_EQ(runToJson(cfg, resume), reference)
        << "resumed run diverged from the uninterrupted one";
}

TEST(Checkpoint, ResumeByteIdenticalDenseWithFaults)
{
    expectResumeByteIdentical(witnessConfig(), "dense");
}

TEST(Checkpoint, ResumeByteIdenticalFastForwardWithFaults)
{
    SimConfig cfg = witnessConfig();
    cfg.fastForward = true;
    expectResumeByteIdentical(cfg, "ff");
}

TEST(Checkpoint, ResumeByteIdenticalSolar)
{
    SimConfig cfg;
    cfg.durationSeconds = 2.0 * 3600.0;
    cfg.solarPowered = true;
    expectResumeByteIdentical(cfg, "solar");
}

TEST(Checkpoint, ResumeByteIdenticalWithSensorNoiseAndDegradation)
{
    // Exercises the controller noise-RNG stream and the
    // degradation-ladder counters through the save/restore cycle.
    SimConfig cfg = witnessConfig();
    cfg.sensorNoiseSigma = 0.02;
    cfg.degradationPolicy = true;
    expectResumeByteIdentical(cfg, "noise");
}

/** Fleet witness: event engine, faults, resumed under other --jobs. */
TEST(Checkpoint, FleetResumeByteIdenticalAcrossJobCounts)
{
    SimConfig cfg = witnessConfig();
    cfg.fastForward = true;

    auto buildSpecs =
        [&](std::vector<std::unique_ptr<ManagementScheme>> &schemes,
            std::vector<std::shared_ptr<const SyntheticWorkload>> &wl) {
            schemes.clear();
            wl.clear();
            std::vector<RackSpec> specs;
            const char *profiles[] = {"TS", "WC", "MS"};
            for (std::size_t r = 0; r < 3; ++r) {
                wl.push_back(SharedPlanCache::global().workload(
                    profiles[r], cfg.seed + r));
                schemes.push_back(makeScheme(SchemeKind::HebD));
                specs.push_back(RackSpec{"rack" + std::to_string(r),
                                         wl[r].get(),
                                         schemes[r].get()});
            }
            return specs;
        };
    FleetOptions options{BudgetPolicy::Proportional, FleetMode::Event,
                         true};
    const double budget = 260.0 * 3;

    std::vector<std::unique_ptr<ManagementScheme>> schemes;
    std::vector<std::shared_ptr<const SyntheticWorkload>> workloads;

    ThreadPool::configureGlobal(4);
    FleetSimulator ref_fleet(cfg, budget, options);
    std::string reference = fleetResultToJson(
        ref_fleet.run(buildSpecs(schemes, workloads)));

    CheckpointOptions every;
    every.everySimSeconds = cfg.durationSeconds / 3.0;
    every.dir = freshDir("fleet");
    FleetSimulator ckpt_fleet(cfg, budget, options);
    EXPECT_EQ(fleetResultToJson(ckpt_fleet.run(
                  buildSpecs(schemes, workloads), every)),
              reference)
        << "checkpointing perturbed the fleet run";

    // Kill between snapshots, then resume on a different pool width.
    std::vector<std::uint64_t> ticks =
        listCheckpointTicks(every.dir, "fleet");
    ASSERT_GE(ticks.size(), 2u);
    fs::remove(checkpointFilePath(every.dir, "fleet", ticks.front()));

    ThreadPool::configureGlobal(2);
    CheckpointOptions resume;
    resume.dir = every.dir;
    resume.resume = true;
    FleetSimulator resumed_fleet(cfg, budget, options);
    EXPECT_EQ(fleetResultToJson(resumed_fleet.run(
                  buildSpecs(schemes, workloads), resume)),
              reference)
        << "fleet resume under a different job count diverged";
    ThreadPool::configureGlobal(0); // restore default sizing
}

/** A torn shard set (manifest intact, shard missing) falls back. */
TEST(Checkpoint, FleetMissingShardFallsBackToOlderCheckpoint)
{
    SimConfig cfg = witnessConfig();
    cfg.fastForward = true;

    std::vector<std::unique_ptr<ManagementScheme>> schemes;
    std::vector<std::shared_ptr<const SyntheticWorkload>> workloads;
    auto makeSpecs = [&]() {
        schemes.clear();
        workloads.clear();
        std::vector<RackSpec> specs;
        for (std::size_t r = 0; r < 2; ++r) {
            workloads.push_back(SharedPlanCache::global().workload(
                "TS", cfg.seed + r));
            schemes.push_back(makeScheme(SchemeKind::HebD));
            specs.push_back(RackSpec{"rack" + std::to_string(r),
                                     workloads[r].get(),
                                     schemes[r].get()});
        }
        return specs;
    };
    FleetOptions options{BudgetPolicy::Static, FleetMode::Event,
                         true};
    const double budget = 260.0 * 2;

    FleetSimulator ref_fleet(cfg, budget, options);
    std::string reference =
        fleetResultToJson(ref_fleet.run(makeSpecs()));

    CheckpointOptions every;
    every.everySimSeconds = cfg.durationSeconds / 3.0;
    every.dir = freshDir("fleet_torn");
    FleetSimulator ckpt_fleet(cfg, budget, options);
    ckpt_fleet.run(makeSpecs(), every);

    // Remove one shard of the newest set but keep its manifest: the
    // resume scan must reject the set and use the older one.
    std::vector<std::uint64_t> ticks =
        listCheckpointTicks(every.dir, "fleet");
    ASSERT_GE(ticks.size(), 2u);
    fs::remove(fs::path(every.dir) /
               ("fleet-" + std::to_string(ticks.front()) +
                "-rack1.ckpt"));

    CheckpointOptions resume;
    resume.dir = every.dir;
    resume.resume = true;
    FleetSimulator resumed_fleet(cfg, budget, options);
    EXPECT_EQ(fleetResultToJson(resumed_fleet.run(makeSpecs(),
                                                  resume)),
              reference);
}

// ---- File-level rejection tests --------------------------------

/** Write a minimal valid checkpoint and return its path. */
std::string
writeSmallCheckpoint(const std::string &dir, std::uint64_t tick)
{
    CheckpointWriter w;
    w.putDouble("meta.duration_s", 100.0);
    w.putU64("sim.tick", tick);
    w.putDoubles("series", {1.0, 2.5, -3.75});
    std::string path = checkpointFilePath(dir, "sim", tick);
    EXPECT_TRUE(writeCheckpointFile(path, w.payload()));
    return path;
}

TEST(Checkpoint, RoundTripsPayloadExactly)
{
    std::string dir = freshDir("roundtrip");
    CheckpointWriter w;
    w.putDouble("d.pi", 3.141592653589793);
    w.putDouble("d.tiny", 5e-324);
    w.putDouble("d.inf", std::numeric_limits<double>::infinity());
    w.putDouble("d.max", std::numeric_limits<double>::max());
    w.putU64("u.big", 18446744073709551615ull);
    w.putBool("b.on", true);
    w.putString("s.name", "rack0");
    w.putDoubles("v.series", {0.1, -0.2, 1e300});
    std::string path = checkpointFilePath(dir, "sim", 7);
    ASSERT_TRUE(writeCheckpointFile(path, w.payload()));

    std::string payload, error;
    ASSERT_TRUE(readCheckpointFile(path, payload, error)) << error;
    CheckpointReader r;
    ASSERT_TRUE(r.parse(payload, error)) << error;
    EXPECT_EQ(r.getDouble("d.pi"), 3.141592653589793);
    EXPECT_EQ(r.getDouble("d.tiny"), 5e-324);
    EXPECT_EQ(r.getDouble("d.inf"),
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(r.getDouble("d.max"),
              std::numeric_limits<double>::max());
    EXPECT_EQ(r.getU64("u.big"), 18446744073709551615ull);
    EXPECT_TRUE(r.getBool("b.on"));
    EXPECT_EQ(r.getString("s.name"), "rack0");
    EXPECT_EQ(r.getDoubles("v.series"),
              (std::vector<double>{0.1, -0.2, 1e300}));
    EXPECT_FALSE(r.has("missing.key"));
}

TEST(Checkpoint, CorruptPayloadByteRejected)
{
    std::string dir = freshDir("corrupt");
    std::string path = writeSmallCheckpoint(dir, 10);

    // Flip one payload byte; the header checksum must catch it.
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    auto size = static_cast<long>(f.tellg());
    f.seekp(size - 2);
    f.put('#');
    f.close();

    std::string payload, error;
    EXPECT_FALSE(readCheckpointFile(path, payload, error));
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(Checkpoint, TruncatedFileRejected)
{
    std::string dir = freshDir("truncated");
    std::string path = writeSmallCheckpoint(dir, 11);
    fs::resize_file(path, fs::file_size(path) - 7);

    std::string payload, error;
    EXPECT_FALSE(readCheckpointFile(path, payload, error));
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(Checkpoint, VersionSkewRejected)
{
    std::string dir = freshDir("skew");
    std::string path = writeSmallCheckpoint(dir, 12);

    std::ifstream in(path, std::ios::binary);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();
    // Header: "HEBCKPT <version> ..." — bump the version field.
    std::size_t sp = content.find(' ');
    ASSERT_NE(sp, std::string::npos);
    content.replace(sp + 1, 1, "999");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
    out.close();

    std::string payload, error;
    EXPECT_FALSE(readCheckpointFile(path, payload, error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(Checkpoint, BadMagicRejected)
{
    std::string dir = freshDir("magic");
    std::string path = checkpointFilePath(dir, "sim", 13);
    std::ofstream out(path, std::ios::binary);
    out << "NOTCKPT 1 0 0\n";
    out.close();

    std::string payload, error;
    EXPECT_FALSE(readCheckpointFile(path, payload, error));
}

TEST(Checkpoint, NewestValidSelectedCorruptNewestSkipped)
{
    std::string dir = freshDir("newest");
    writeSmallCheckpoint(dir, 100);
    writeSmallCheckpoint(dir, 200);
    std::string newest = writeSmallCheckpoint(dir, 300);

    // Corrupt the newest: selection must fall back to tick 200.
    std::fstream f(newest,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0, std::ios::end);
    auto size = static_cast<long>(f.tellg());
    f.seekp(size - 2);
    f.put('#');
    f.close();

    std::string payload, path;
    std::uint64_t tick = 0;
    ASSERT_TRUE(
        newestValidCheckpoint(dir, "sim", payload, path, tick));
    EXPECT_EQ(tick, 200u);
    EXPECT_EQ(path, checkpointFilePath(dir, "sim", 200));
}

TEST(Checkpoint, AbortedEmergencyFilesNeverAutoSelected)
{
    std::string dir = freshDir("aborted");
    writeSmallCheckpoint(dir, 50);
    // An emergency file with a higher embedded tick must not win.
    CheckpointWriter w;
    w.putU64("sim.tick", 999);
    ASSERT_TRUE(writeCheckpointFile(
        dir + "/sim-emergency" + kAbortedCheckpointSuffix,
        w.payload()));

    std::string payload, path;
    std::uint64_t tick = 0;
    ASSERT_TRUE(
        newestValidCheckpoint(dir, "sim", payload, path, tick));
    EXPECT_EQ(tick, 50u);
}

TEST(Checkpoint, EmptyDirectoryHasNoCheckpoint)
{
    std::string dir = freshDir("empty");
    std::string payload, path;
    std::uint64_t tick = 0;
    EXPECT_FALSE(
        newestValidCheckpoint(dir, "sim", payload, path, tick));
    EXPECT_TRUE(listCheckpointTicks(dir, "sim").empty());
}

TEST(Checkpoint, ResumeFromMismatchedConfigIsFatal)
{
    SimConfig cfg = witnessConfig();
    CheckpointOptions every;
    every.everySimSeconds = cfg.durationSeconds / 3.0;
    every.dir = freshDir("guard");
    runToJson(cfg, every);

    SimConfig other = cfg;
    other.seed = cfg.seed + 1;
    CheckpointOptions resume;
    resume.dir = every.dir;
    resume.resume = true;
    EXPECT_EXIT(runToJson(other, resume),
                ::testing::ExitedWithCode(1),
                "written under a different seed");
}

TEST(Checkpoint, OptionsValidateRejectsBadKnobs)
{
    CheckpointOptions nan_period;
    nan_period.everySimSeconds =
        std::numeric_limits<double>::quiet_NaN();
    nan_period.dir = "x";
    EXPECT_EXIT(nan_period.validate(),
                ::testing::ExitedWithCode(1), "non-negative");

    CheckpointOptions negative;
    negative.everySimSeconds = -5.0;
    negative.dir = "x";
    EXPECT_EXIT(negative.validate(), ::testing::ExitedWithCode(1),
                "non-negative");

    CheckpointOptions no_dir;
    no_dir.everySimSeconds = 60.0;
    EXPECT_EXIT(no_dir.validate(), ::testing::ExitedWithCode(1),
                "checkpoint-dir");
}

TEST(SimConfigValidate, RejectsMalformedFields)
{
    SimConfig zero_servers;
    zero_servers.numServers = 0;
    EXPECT_EXIT(zero_servers.validate(),
                ::testing::ExitedWithCode(1), "numServers");

    SimConfig nan_duration;
    nan_duration.durationSeconds =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_EXIT(nan_duration.validate(),
                ::testing::ExitedWithCode(1), "durationSeconds");

    SimConfig bad_budget;
    bad_budget.budgetW = -10.0;
    EXPECT_EXIT(bad_budget.validate(),
                ::testing::ExitedWithCode(1), "budgetW");

    SimConfig inf_duration;
    inf_duration.durationSeconds =
        std::numeric_limits<double>::infinity();
    EXPECT_EXIT(inf_duration.validate(),
                ::testing::ExitedWithCode(1), "durationSeconds");

    SimConfig inf_sc;
    inf_sc.scEnergyWh = std::numeric_limits<double>::infinity();
    EXPECT_EXIT(inf_sc.validate(), ::testing::ExitedWithCode(1),
                "scEnergyWh");

    SimConfig neg_inf_target;
    neg_inf_target.peakShavingTargetW =
        -std::numeric_limits<double>::infinity();
    EXPECT_EXIT(neg_inf_target.validate(),
                ::testing::ExitedWithCode(1), "peakShavingTargetW");

    SimConfig bad_dod;
    bad_dod.baDod = 1.5;
    EXPECT_EXIT(bad_dod.validate(), ::testing::ExitedWithCode(1),
                "baDod");

    SimConfig ok;
    ok.validate(); // must not exit
    SUCCEED();
}

} // namespace
} // namespace heb
