/**
 * @file
 * Checkpoint/restore tests: the kill-and-resume byte-identity
 * witness (single rack dense, fast-forward, solar — all in the
 * one-rack fleet format; fleet event mode across job counts), the
 * pinned bytes of the files each witness writes, rejection of
 * corrupt, truncated and version-skewed files, every load-side check
 * of a rack file, and newest-valid selection.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>

#include "core/schemes.h"
#include "sim/checkpoint.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "sim/simulator.h"
#include "sim/plan_cache.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "workload/workload_profiles.h"
#include "test_paths.h"

namespace heb {
namespace {

namespace fs = std::filesystem;

/** Fresh empty checkpoint directory under the gtest temp root. */
std::string
freshDir(const std::string &tag)
{
    return test::uniqueTempDir("ckpt_" + tag).string();
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
runToJson(const SimConfig &cfg, const CheckpointOptions &ckpt = {},
          SchemeKind kind = SchemeKind::HebD)
{
    auto workload = SharedPlanCache::global().workload("TS", cfg.seed);
    auto scheme = makeScheme(kind);
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
    // newest checkpoint's manifest so resume restarts from mid-run
    // state. A Simulator run writes the one-rack fleet format.
    std::vector<std::uint64_t> ticks =
        listCheckpointTicks(every.dir, "fleet");
    ASSERT_GE(ticks.size(), 2u);
    fs::remove(checkpointFilePath(every.dir, "fleet", ticks.front()));

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

/** Length of every rig's run: witnessConfig()'s two hours. */
constexpr double kRigSeconds = 2.0 * 3600.0;

/** The fleet witness: 3 racks, Proportional, event engine, faults. */
std::string
runFleetToJson(const CheckpointOptions &ckpt)
{
    SimConfig cfg = witnessConfig();
    cfg.fastForward = true;
    std::vector<std::unique_ptr<ManagementScheme>> schemes;
    std::vector<std::shared_ptr<const SyntheticWorkload>> workloads;
    std::vector<RackSpec> specs;
    const char *profiles[] = {"TS", "WC", "MS"};
    for (std::size_t r = 0; r < 3; ++r) {
        workloads.push_back(SharedPlanCache::global().workload(
            profiles[r], cfg.seed + r));
        schemes.push_back(makeScheme(SchemeKind::HebD));
        specs.push_back(RackSpec{"rack" + std::to_string(r),
                                 workloads[r].get(), schemes[r].get()});
    }
    FleetSimulator fleet(cfg, 260.0 * 3,
                         FleetOptions{BudgetPolicy::Proportional,
                                      FleetMode::Event, true});
    return fleetResultToJson(fleet.run(specs, ckpt));
}

/** Fleet witness: event engine, faults, resumed under other --jobs. */
TEST(Checkpoint, FleetResumeByteIdenticalAcrossJobCounts)
{
    ThreadPool::configureGlobal(4);
    const std::string reference = runFleetToJson({});

    CheckpointOptions every;
    every.everySimSeconds = kRigSeconds / 3.0;
    every.dir = freshDir("fleet");
    EXPECT_EQ(runFleetToJson(every), reference)
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
    EXPECT_EQ(runFleetToJson(resume), reference)
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

// ---- Checkpoint bytes -------------------------------------------

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

/** Every checkpoint file in @p dir, name -> bytes, in name order. */
std::map<std::string, std::string>
checkpointFiles(const std::string &dir)
{
    std::map<std::string, std::string> files;
    for (const fs::directory_entry &e : fs::directory_iterator(dir)) {
        std::string name = e.path().filename().string();
        if (name.size() <= 5 || name.substr(name.size() - 5) != ".ckpt")
            continue;
        std::ifstream in(e.path(), std::ios::binary);
        files[name].assign(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    }
    return files;
}

/** True when @p file belongs to the checkpoint set of @p tick. */
bool
inTickSet(const std::string &file, std::uint64_t tick)
{
    const std::string stem = "fleet-" + std::to_string(tick);
    return file.compare(0, stem.size(), stem) == 0 &&
           (file[stem.size()] == '.' || file[stem.size()] == '-');
}

/** One run of a rig, with the given checkpointing knobs, as JSON. */
using CheckpointRig = std::function<std::string(const CheckpointOptions &)>;

/**
 * The rigs whose checkpoint files are pinned: the four single-rack
 * witnesses, the fleet witness, an HEB-F rack (last-value predictor)
 * and a BaOnly rack (stateless scheme, battery-only banks).
 */
std::map<std::string, CheckpointRig>
checkpointRigs()
{
    auto single = [](SimConfig cfg, SchemeKind kind) -> CheckpointRig {
        return [cfg, kind](const CheckpointOptions &ckpt) {
            return runToJson(cfg, ckpt, kind);
        };
    };
    SimConfig ff = witnessConfig();
    ff.fastForward = true;
    SimConfig solar;
    solar.durationSeconds = kRigSeconds;
    solar.solarPowered = true;
    SimConfig noise = witnessConfig();
    noise.sensorNoiseSigma = 0.02;
    noise.degradationPolicy = true;
    return {
        {"ba_only", single(witnessConfig(), SchemeKind::BaOnly)},
        {"dense_faults", single(witnessConfig(), SchemeKind::HebD)},
        {"fast_forward_faults", single(ff, SchemeKind::HebD)},
        {"fleet", runFleetToJson},
        {"heb_f", single(witnessConfig(), SchemeKind::HebF)},
        {"noise_degradation", single(noise, SchemeKind::HebD)},
        {"solar", single(solar, SchemeKind::HebD)},
    };
}

TEST(Checkpoint, FileDigestsPinned)
{
    // FNV-1a over the name and bytes of every checkpoint file a run
    // writes (manifests and rack files, in file-name order), one
    // digest per rig. Any change to what a checkpoint holds or how
    // it is encoded moves a digest. Recorded on x86-64 Linux with
    // glibc's libm.
    const std::map<std::string, std::uint64_t> pinned = {
        {"ba_only", 0xf1148f943543ccf3ull},
        {"dense_faults", 0x15aee0e75426a5acull},
        {"fast_forward_faults", 0x1d18c4f674e900e1ull},
        {"fleet", 0x6a574d2ccc265bc6ull},
        {"heb_f", 0x6107fad049361021ull},
        {"noise_degradation", 0x1d9b8f829f1ec2dcull},
        {"solar", 0x22bc3250019c53ebull},
    };
    for (const auto &[name, rig] : checkpointRigs()) {
        CheckpointOptions every;
        every.everySimSeconds = kRigSeconds / 3.0;
        every.dir = freshDir("digest_" + name);
        rig(every);
        std::map<std::string, std::string> files =
            checkpointFiles(every.dir);
        EXPECT_GE(files.size(), 4u) << name;
        std::uint64_t h = kFnvBasis;
        for (const auto &[file, bytes] : files)
            h = fnv1a(fnv1a(h, file), bytes);
        EXPECT_EQ(h, pinned.at(name))
            << name << ": 0x" << std::hex << h;
    }
}

TEST(Checkpoint, ResumedRunRewritesIdenticalFiles)
{
    // Checkpoint at 1/4, 1/2 and 3/4 of the run, delete the 1/2 and
    // 3/4 sets and resume from 1/4 at the same period: the resumed
    // run must rewrite both sets byte for byte, so every restored
    // field reaches the next save unchanged.
    const std::map<std::string, CheckpointRig> rigs = checkpointRigs();
    for (const char *name : {"fleet", "heb_f"}) {
        CheckpointOptions every;
        every.everySimSeconds = kRigSeconds / 4.0;
        every.dir = freshDir(std::string("rewrite_") + name);
        rigs.at(name)(every);
        std::vector<std::uint64_t> ticks =
            listCheckpointTicks(every.dir, "fleet");
        ASSERT_EQ(ticks.size(), 3u) << name;
        const std::map<std::string, std::string> written =
            checkpointFiles(every.dir);
        for (const auto &[file, bytes] : written)
            if (!inTickSet(file, ticks.back()))
                fs::remove(fs::path(every.dir) / file);
        ASSERT_EQ(listCheckpointTicks(every.dir, "fleet").size(), 1u);

        CheckpointOptions resume = every;
        resume.resume = true;
        rigs.at(name)(resume);
        const std::map<std::string, std::string> rewritten =
            checkpointFiles(every.dir);
        ASSERT_EQ(rewritten.size(), written.size()) << name;
        for (const auto &[file, bytes] : written) {
            auto it = rewritten.find(file);
            ASSERT_NE(it, rewritten.end()) << name << ": " << file;
            EXPECT_TRUE(it->second == bytes)
                << name << ": " << file << " differs after resume";
        }
    }
}

TEST(Checkpoint, AllSetsTornStartsFromZero)
{
    // Every manifest survives but every rack file is gone, so each
    // set is rejected after its manifest was read and guarded. The
    // run must start from t=0 with nothing a manifest held and still
    // equal the uninterrupted run.
    const std::string reference = runFleetToJson({});
    CheckpointOptions every;
    every.everySimSeconds = kRigSeconds / 3.0;
    every.dir = freshDir("all_torn");
    runFleetToJson(every);
    for (const auto &[file, bytes] : checkpointFiles(every.dir))
        if (file.find("-rack") != std::string::npos)
            fs::remove(fs::path(every.dir) / file);
    ASSERT_EQ(listCheckpointTicks(every.dir, "fleet").size(), 2u);

    CheckpointOptions resume;
    resume.dir = every.dir;
    resume.resume = true;
    ::testing::internal::CaptureStderr();
    std::string resumed = runFleetToJson(resume);
    std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("no valid fleet checkpoint"), std::string::npos)
        << log;
    EXPECT_EQ(log.find("resumed fleet from"), std::string::npos) << log;
    EXPECT_EQ(resumed, reference);
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

TEST(Checkpoint, GetU64RejectsSignSpaceAndOverflow)
{
    // strtoull would read these as 2^64-1, 7 and 2^64-1.
    for (const char *text : {"-1", " 7", "99999999999999999999"}) {
        CheckpointReader r;
        std::string error;
        ASSERT_TRUE(r.parse(std::string("n=") + text + "\n", error));
        EXPECT_EXIT(r.getU64("n"), ::testing::ExitedWithCode(1),
                    "is not an unsigned integer")
            << text;
    }
    CheckpointReader r;
    std::string error;
    ASSERT_TRUE(r.parse("n=18446744073709551615\n", error));
    EXPECT_EQ(r.getU64("n"), 18446744073709551615ull);
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

TEST(Checkpoint, ResumeSkipsCorruptNewestManifest)
{
    // Corrupt the newest manifest: resume must skip it with a warning,
    // restore the older checkpoint and still finish byte-identical.
    SimConfig cfg = witnessConfig();
    const std::string reference = runToJson(cfg);
    CheckpointOptions every;
    every.everySimSeconds = cfg.durationSeconds / 3.0;
    every.dir = freshDir("newest");
    runToJson(cfg, every);
    std::vector<std::uint64_t> ticks =
        listCheckpointTicks(every.dir, "fleet");
    ASSERT_EQ(ticks.size(), 2u);

    std::fstream f(checkpointFilePath(every.dir, "fleet", ticks[0]),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0, std::ios::end);
    auto size = static_cast<long>(f.tellg());
    f.seekp(size - 2);
    f.put('#');
    f.close();

    CheckpointOptions resume;
    resume.dir = every.dir;
    resume.resume = true;
    ::testing::internal::CaptureStderr();
    std::string resumed = runToJson(cfg, resume);
    std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("checksum"), std::string::npos) << log;
    EXPECT_EQ(log.find("no valid"), std::string::npos) << log;
    EXPECT_EQ(resumed, reference);
}

TEST(Checkpoint, AbortedEmergencyFilesNeverListed)
{
    std::string dir = freshDir("aborted");
    writeSmallCheckpoint(dir, 50);
    // An emergency file with a higher embedded tick must not win.
    CheckpointWriter w;
    w.putU64("sim.tick", 999);
    ASSERT_TRUE(writeCheckpointFile(
        dir + "/sim-emergency" + kAbortedCheckpointSuffix,
        w.payload()));
    EXPECT_EQ(listCheckpointTicks(dir, "sim"),
              (std::vector<std::uint64_t>{50}));
}

TEST(Checkpoint, EmptyDirectoryHasNoCheckpoint)
{
    std::string dir = freshDir("empty");
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

/**
 * Replace @p key's value in the checkpoint file at @p path. The file
 * stays valid (checksum and size are rewritten), so only the resume
 * code's own checks can reject it.
 */
void
rewriteKey(const std::string &path, const std::string &key,
           const std::string &value)
{
    std::string payload, error;
    ASSERT_TRUE(readCheckpointFile(path, payload, error)) << error;
    const std::string line = key + "=";
    std::size_t at = payload.compare(0, line.size(), line) == 0
                         ? 0
                         : payload.find("\n" + line);
    ASSERT_NE(at, std::string::npos) << key;
    std::size_t begin = payload.find('=', at) + 1;
    payload.replace(begin, payload.find('\n', begin) - begin, value);
    ASSERT_TRUE(writeCheckpointFile(path, payload));
}

TEST(Checkpoint, MismatchedRackFileIsFatal)
{
    // Each load-side check of a rack file, fired by one edited key of
    // an otherwise valid file.
    SimConfig cfg = witnessConfig();
    CheckpointOptions every;
    every.everySimSeconds = cfg.durationSeconds / 3.0;
    every.dir = freshDir("mismatch");
    runToJson(cfg, every);
    const std::string rack = fleetShardCheckpointPath(
        every.dir, listCheckpointTicks(every.dir, "fleet").front(), 0);
    const std::string pristine = checkpointFiles(every.dir).at(
        fs::path(rack).filename().string());

    struct Case
    {
        const char *key;
        const char *value;
        const char *message;
    };
    const Case cases[] = {
        {"shard.rack", "rack9", "written under a different rack;"},
        {"rack.sc_bank.devices", "3",
         "written under a different SC bank device count"},
        {"rack.ba_bank.devices", "3",
         "written under a different battery bank device count"},
        {"rack.servers", "7", "written under a different server count"},
        {"rack.switches", "7", "written under a different relay count"},
        {"rack.faults_by_kind", "0 0 0",
         "'rack.faults_by_kind' has 3 values, want 6"},
        {"rack.server.0", "1 1 0 0 0",
         "'rack.server.0' has 5 values, want 6"},
        {"rack.injector.next_index", "999", "cursor 999 beyond plan"},
        {"rack.scheme", "1 0", "truncated state while reading"},
    };
    CheckpointOptions resume;
    resume.dir = every.dir;
    resume.resume = true;
    for (const Case &c : cases) {
        rewriteKey(rack, c.key, c.value);
        EXPECT_EXIT(runToJson(cfg, resume), ::testing::ExitedWithCode(1),
                    c.message)
            << c.key;
        std::ofstream(rack, std::ios::binary | std::ios::trunc)
            << pristine;
    }
    EXPECT_EQ(runToJson(cfg, resume), runToJson(cfg));
}

/** A scheme that fails its first control slot. */
class ThrowingScheme final : public ManagementScheme
{
  public:
    const std::string &
    name() const override
    {
        return name_;
    }

    SlotPlan
    planSlot(const SlotSensors &) override
    {
        throw std::runtime_error("planSlot failed");
    }

    void finishSlot(const SlotOutcome &) override {}

  private:
    std::string name_ = "throwing";
};

TEST(Checkpoint, ThrowingRunDisarmsEmergencyWriter)
{
    // The run's emergency writer captures its locals; once an
    // exception unwinds them, a later exit must not call it.
    SimConfig cfg = witnessConfig();
    CheckpointOptions every;
    every.everySimSeconds = cfg.durationSeconds / 3.0;
    every.dir = freshDir("throwing");
    auto workload = SharedPlanCache::global().workload("TS", cfg.seed);
    ThrowingScheme scheme;
    EXPECT_THROW(Simulator(cfg).run(*workload, scheme, every),
                 std::runtime_error);

    EXPECT_EXIT(fatal("fatal after a failed run"),
                ::testing::ExitedWithCode(1), "after a failed run");
    for (const fs::directory_entry &e : fs::directory_iterator(every.dir))
        EXPECT_NE(e.path().filename().string().rfind("fleet-emergency", 0),
                  0u)
            << e.path();
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
