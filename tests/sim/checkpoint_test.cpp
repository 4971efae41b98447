/**
 * @file
 * Checkpoint/restore tests: the pinned bytes of the files each rig
 * writes (single racks dense and event, solar, a fleet), rejection
 * of corrupt, truncated and version-skewed files, every resume guard
 * and load-side check, and newest-valid selection. Kill-and-resume
 * byte identity is differential_test.cpp's.
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
#include "workload/workload_profiles.h"
#include "calm_fleet.h"
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

/** Rig shared by the tests: short, faulty, 1 s ticks. */
SimConfig
witnessConfig()
{
    SimConfig cfg;
    cfg.durationSeconds = 2.0 * 3600.0;
    cfg.faultInjection = true;
    cfg.faultPlan.converterTripsPerDay = 24.0;
    cfg.faultPlan.weakCellsPerDay = 24.0;
    return cfg;
}

/**
 * One full run of TS as rack "rack0" under a fresh scheme: the
 * one-rack Static fleet Simulator::run builds, on @p mode's engine,
 * with optional checkpointing knobs.
 */
std::string
runToJson(const SimConfig &cfg, const CheckpointOptions &ckpt = {},
          SchemeKind kind = SchemeKind::HebD,
          FleetMode mode = FleetMode::Dense)
{
    auto workload = SharedPlanCache::global().workload("TS", cfg.seed);
    auto scheme = makeScheme(kind);
    FleetResult r = FleetSimulator(cfg, cfg.budgetW,
                                   FleetOptions{BudgetPolicy::Static, mode})
                        .run({RackSpec{"rack0", workload.get(),
                                       scheme.get()}},
                             ckpt);
    return simResultToJson(r.racks[0]);
}

/** Length of every rig's run: witnessConfig()'s two hours. */
constexpr double kRigSeconds = 2.0 * 3600.0;

/** The fleet rig: 3 racks, Proportional, event engine, faults. */
std::string
runFleetToJson(const CheckpointOptions &ckpt)
{
    std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
    for (const char *profile : {"TS", "WC", "MS"})
        workloads.push_back(
            makeWorkload(profile, witnessConfig().seed + workloads.size()));
    test::Rig rig(std::move(workloads));
    return fleetResultToJson(
        FleetSimulator(witnessConfig(), 260.0 * 3,
                       FleetOptions{BudgetPolicy::Proportional})
            .run(rig.specs, ckpt));
}

/** A torn shard set (manifest intact, shard missing) falls back. */
TEST(Checkpoint, FleetMissingShardFallsBackToOlderCheckpoint)
{
    const std::string reference = runFleetToJson({});
    CheckpointOptions every;
    every.everySimSeconds = kRigSeconds / 3.0;
    every.dir = freshDir("fleet_torn");
    runFleetToJson(every);

    // Remove one shard of the newest set but keep its manifest: the
    // resume scan must reject the set and use the older one.
    std::vector<std::uint64_t> ticks =
        listCheckpointTicks(every.dir, "fleet");
    ASSERT_GE(ticks.size(), 2u);
    fs::remove(fleetShardCheckpointPath(every.dir, ticks.front(), 1));

    CheckpointOptions resume;
    resume.dir = every.dir;
    resume.resume = true;
    EXPECT_EQ(runFleetToJson(resume), reference);
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
 * The rigs whose checkpoint files are pinned: four single racks
 * (dense, event, solar on the event engine, noise + degradation),
 * the fleet rig, an HEB-F rack (last-value predictor) and a BaOnly
 * rack (stateless scheme, battery-only banks).
 */
std::map<std::string, CheckpointRig>
checkpointRigs()
{
    auto single = [](SimConfig cfg, SchemeKind kind,
                     FleetMode mode = FleetMode::Dense) -> CheckpointRig {
        return [cfg, kind, mode](const CheckpointOptions &ckpt) {
            return runToJson(cfg, ckpt, kind, mode);
        };
    };
    SimConfig solar;
    solar.durationSeconds = kRigSeconds;
    solar.solarPowered = true;
    SimConfig noise = witnessConfig();
    noise.sensorNoiseSigma = 0.02;
    noise.degradationPolicy = true;
    return {
        {"ba_only", single(witnessConfig(), SchemeKind::BaOnly)},
        {"dense_faults", single(witnessConfig(), SchemeKind::HebD)},
        {"fast_forward_faults",
         single(witnessConfig(), SchemeKind::HebD, FleetMode::Event)},
        {"fleet", runFleetToJson},
        {"heb_f", single(witnessConfig(), SchemeKind::HebF)},
        {"noise_degradation", single(noise, SchemeKind::HebD)},
        {"solar", single(solar, SchemeKind::HebD, FleetMode::Event)},
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

TEST(Checkpoint, ResumeGuardsFireOnEveryManifestKey)
{
    // Each meta.* key of a fleet manifest, edited alone in an
    // otherwise valid file, makes the resume fatal, naming what
    // differs.
    SimConfig cfg = witnessConfig();
    CheckpointOptions every;
    every.everySimSeconds = cfg.durationSeconds / 3.0;
    every.dir = freshDir("guards");
    runToJson(cfg, every);
    const std::string manifest = checkpointFilePath(
        every.dir, "fleet", listCheckpointTicks(every.dir, "fleet").front());
    const std::string pristine = checkpointFiles(every.dir).at(
        fs::path(manifest).filename().string());

    struct Case
    {
        const char *key;
        const char *value;
        const char *what;
    };
    const Case cases[] = {
        {"meta.duration_s", "3600", "duration"},
        {"meta.tick_s", "2", "tick length"},
        {"meta.slot_s", "300", "slot length"},
        {"meta.seed", "43", "seed"},
        {"meta.fault_seed", "2", "fault seed"},
        {"meta.servers", "7", "server count"},
        {"meta.facility_budget_w", "261", "facility budget"},
        {"meta.policy", "proportional", "budget policy"},
        {"meta.mode", "event", "fleet mode"},
        {"meta.faults", "0", "fault-injection setting"},
        {"meta.solar", "1", "supply kind"},
        {"meta.racks", "2", "rack count"},
        {"meta.rack.0.name", "rack9", "rack roster"},
        {"meta.rack.0.scheme", "BaOnly", "rack scheme"},
        {"meta.rack.0.workload", "WC", "rack workload"},
    };
    CheckpointOptions resume;
    resume.dir = every.dir;
    resume.resume = true;
    for (const Case &c : cases) {
        rewriteKey(manifest, c.key, c.value);
        EXPECT_EXIT(runToJson(cfg, resume), ::testing::ExitedWithCode(1),
                    std::string("written under a different ") + c.what +
                        "; refusing to resume")
            << c.key;
        std::ofstream(manifest, std::ios::binary | std::ios::trunc)
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
