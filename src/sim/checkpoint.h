/**
 * @file
 * Versioned, checksummed checkpoint/restore for long-horizon runs.
 *
 * A checkpoint captures the complete mutable state of a
 * FleetSimulator run (a Simulator run is a one-rack fleet) at a tick
 * boundary — bank lane state, ledger, controller slot plan,
 * predictor history, PAT entries, degradation counters, fault-
 * injector cursor and RNG stream positions, a solar feed's harvest
 * meter, the buffer converter's restart time, accumulated series —
 * so a killed run can resume and produce a final
 * SimResult/FleetResult byte-identical at %.17g to an uninterrupted
 * one (DESIGN.md §14).
 *
 * File format: one header line
 *
 *   HEBCKPT <version> <fnv1a64-checksum-hex> <payload-bytes>\n
 *
 * followed by exactly <payload-bytes> of payload. The payload is
 * line-oriented `key=value` text; doubles use the util/format
 * round-trip-exact encoding so restore is bitwise-faithful. Writes
 * are torn-write-safe (util/atomic_file): a crash leaves either the
 * previous checkpoint or the complete new one. A corrupt, truncated
 * or version-skewed file is rejected with a diagnostic, and resume
 * auto-selects the newest valid checkpoint in the directory.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace heb {

/**
 * Current checkpoint format version. v2: single-rack runs write the
 * fleet format, whose manifest carries the feed's supply kind. v3:
 * the manifest drops the utility feed's billing meters and a rack's
 * "topology" key is the buffer stage's restart time alone. Older
 * files are skipped as version skew.
 */
constexpr std::uint32_t kCheckpointFormatVersion = 3;

/** File-name suffix of regular checkpoint files. */
extern const char *const kCheckpointSuffix;

/**
 * Suffix of emergency checkpoints written by the on-fatal hook.
 * These may capture mid-tick state, so the resume scan never
 * auto-selects them; they exist for manual salvage only.
 */
extern const char *const kAbortedCheckpointSuffix;

/** CLI-facing checkpointing knobs, shared by heb_sim and heb_fleet. */
struct CheckpointOptions
{
    /** Write a checkpoint every this many sim-seconds (0 = never). */
    double everySimSeconds = 0.0;

    /** Directory holding the checkpoint files. */
    std::string dir;

    /** Resume from the newest valid checkpoint in dir. */
    bool resume = false;

    /** True when any checkpoint behaviour is requested. */
    bool
    enabled() const
    {
        return everySimSeconds > 0.0 || resume;
    }

    /** fatal() on inconsistent knobs (NaN period, missing dir). */
    void validate() const;
};

/** Accumulates a checkpoint payload as key=value lines. */
class CheckpointWriter
{
  public:
    /** Record a double with round-trip-exact encoding. */
    void putDouble(const std::string &key, double value);

    /** Record an unsigned 64-bit counter. */
    void putU64(const std::string &key, std::uint64_t value);

    /** Record a boolean as 0/1. */
    void putBool(const std::string &key, bool value);

    /** Record a single-line string (panic on embedded newline). */
    void putString(const std::string &key, const std::string &value);

    /** Record a vector of doubles, each round-trip exact. */
    void putDoubles(const std::string &key,
                    const std::vector<double> &values);

    /** The payload accumulated so far. */
    const std::string &payload() const { return payload_; }

  private:
    std::string payload_;
};

/** Parses and serves a checkpoint payload. */
class CheckpointReader
{
  public:
    /**
     * Parse @p payload (as validated by readCheckpointFile). Returns
     * false with a diagnostic in @p error on a malformed line.
     */
    bool parse(const std::string &payload, std::string &error);

    /** True when @p key is present. */
    bool has(const std::string &key) const;

    /**
     * Typed getters. A missing key or unparseable value is fatal()
     * naming the key: the checksum already vouched for file
     * integrity, so a miss means an incompatible layout.
     */
    double getDouble(const std::string &key) const;
    std::uint64_t getU64(const std::string &key) const;
    bool getBool(const std::string &key) const;
    const std::string &getString(const std::string &key) const;
    std::vector<double> getDoubles(const std::string &key) const;

  private:
    const std::string &rawValue(const std::string &key) const;

    std::map<std::string, std::string> values_;
};

/**
 * Frame @p payload with the header (magic, version, checksum, size)
 * and write it torn-write-safely to @p path. Returns false after a
 * warning when the write fails.
 */
bool writeCheckpointFile(const std::string &path,
                         const std::string &payload);

/**
 * Read and verify a checkpoint file: magic, format version, payload
 * size and checksum must all match. On success @p payload_out holds
 * the verified payload; on failure @p error_out names what was wrong
 * (truncated, corrupt, version skew, ...).
 */
bool readCheckpointFile(const std::string &path,
                        std::string &payload_out,
                        std::string &error_out);

/** Canonical file name "<dir>/<stem>-<tick>.ckpt". */
std::string checkpointFilePath(const std::string &dir,
                               const std::string &stem,
                               std::uint64_t tick);

/**
 * Tick numbers of files named "<stem>-<tick>.ckpt" in @p dir, newest
 * (highest tick) first. Name-based only — validity is checked by the
 * caller, file by file, so one corrupt checkpoint falls back to the
 * next older one. Emergency ".aborted" files are never listed.
 */
std::vector<std::uint64_t>
listCheckpointTicks(const std::string &dir, const std::string &stem);

/**
 * Arm an emergency checkpoint writer that runs when the process
 * terminates through fatal() (exit) or an unhandled exception, in
 * the spirit of obs::installTraceFlushOnAbort. The writer should
 * emit a *.aborted file — resume never auto-selects it. Pass the
 * writer by value; call clearCheckpointOnFatal() before the state it
 * captures is destroyed.
 */
void installCheckpointOnFatal(std::function<void()> writer);

/** Disarm the emergency writer. */
void clearCheckpointOnFatal();

/**
 * Per-rack fleet checkpoint file "<dir>/fleet-<tick>-rack<r>.ckpt".
 * One file per rack, so the --jobs count that wrote a set does not
 * constrain the one that resumes it.
 */
std::string fleetShardCheckpointPath(const std::string &dir,
                                     std::uint64_t tick,
                                     std::size_t rack);

} // namespace heb
