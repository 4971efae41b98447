/**
 * @file
 * The output flags every run tool shares, and what they imply.
 *
 * `--trace-out`, `--trace-chrome`, `--trace-stride`, `--metrics-out`,
 * `--prom-out`, `--manifest` and `--profile` mean the same in heb_sim
 * and heb_fleet, and the figure benches that write metrics and a
 * manifest set the same fields directly. RunOutputs parses them,
 * chooses the telemetry level they need (telemetry stays off, at zero
 * cost, unless one asks for it), builds the trace ring with its abort
 * salvage, and writes each artifact after the run:
 *
 *   RunOutputs outputs;         // parse() each flag from a CliArgs
 *   outputs.begin(1 << 18, !out_prefix.empty());
 *   outputs.manifest.tool = "heb_sim";
 *   outputs.startClock();
 *   ... run ...
 *   outputs.stopClock();
 *   outputs.writeTelemetry(cfg.tickSeconds);
 *   outputs.writeProfileAndManifest(out_prefix);
 */

#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>

#include "obs/manifest.h"
#include "obs/trace.h"

namespace heb {

class CliArgs;

namespace obs {

/** Shared output flags of one run and the artifacts they write. */
class RunOutputs
{
  public:
    /** JSON Lines trace (CSV when the name ends in .csv). */
    std::string tracePath;
    /** Chrome trace_event JSON of the same ring. */
    std::string chromePath;
    /** Record every Nth tick event. */
    std::size_t traceStride = 1;
    /** Metric registry as JSON. */
    std::string metricsPath;
    /** Metric registry as Prometheus text exposition. */
    std::string promPath;
    /** Run provenance manifest. */
    std::string manifestPath;
    /** Phase profile on stdout (span tracks in the Chrome trace). */
    bool profile = false;

    /** Provenance the tool fills in; startClock()/stopClock() time it. */
    RunManifest manifest;

    /** Usage lines describing the shared flags. */
    static const char *usage();

    /** Consume @p cli's current argument if it is a shared flag. */
    bool parse(CliArgs &cli);

    /**
     * Set the telemetry level and profiling the outputs need (Full for
     * a trace, else Metrics for a metrics, Prometheus or manifest
     * output or when @p metrics_needed, the tool's own reason), and
     * for a trace build a ring of @p ring_slots events, make it the
     * active trace and salvage it as JSON Lines if the run dies.
     */
    void begin(std::size_t ring_slots, bool metrics_needed);

    /** Stamp the manifest's start time and start its wall clock. */
    void startClock();

    /** Record the wall time since startClock() in the manifest. */
    void stopClock();

    /**
     * Detach the ring and write the trace, the Chrome trace, the
     * metrics JSON and the Prometheus text that were asked for,
     * printing one line for each. @p tick_seconds sizes the Chrome
     * trace's macro-spans.
     */
    void writeTelemetry(double tick_seconds = 1.0);

    /**
     * Print the phase profile (--profile) and write the manifest to
     * --manifest and, with a non-empty @p out_prefix, to
     * `<out_prefix>_manifest.json`.
     */
    void writeProfileAndManifest(const std::string &out_prefix = "");

  private:
    std::optional<TraceRecorder> trace_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace obs
} // namespace heb
