#include "obs/run_outputs.h"

#include <cstdio>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/prometheus.h"
#include "obs/trace_event.h"
#include "util/cli.h"
#include "util/logging.h"

namespace heb {
namespace obs {

const char *
RunOutputs::usage()
{
    return "  outputs (telemetry stays off unless one asks for it):\n"
           "  --trace-out FILE     event trace, JSON Lines (CSV if FILE "
           "ends in .csv)\n"
           "  --trace-chrome FILE  the trace as Chrome trace_event JSON "
           "(Perfetto)\n"
           "  --trace-stride N     keep every Nth tick event "
           "(default 1)\n"
           "  --metrics-out FILE   metric registry as JSON\n"
           "  --prom-out FILE      metric registry as Prometheus text\n"
           "  --manifest FILE      run provenance manifest (JSON)\n"
           "  --profile            phase-time table on stdout, span "
           "tracks in --trace-chrome\n";
}

bool
RunOutputs::parse(CliArgs &cli)
{
    if (cli.is("--trace-out"))
        tracePath = cli.value();
    else if (cli.is("--trace-chrome"))
        chromePath = cli.value();
    else if (cli.is("--trace-stride"))
        traceStride = cli.count();
    else if (cli.is("--metrics-out"))
        metricsPath = cli.value();
    else if (cli.is("--prom-out"))
        promPath = cli.value();
    else if (cli.is("--manifest"))
        manifestPath = cli.value();
    else if (cli.is("--profile"))
        profile = true;
    else
        return false;
    return true;
}

void
RunOutputs::begin(std::size_t ring_slots, bool metrics_needed)
{
    const bool want_trace = !tracePath.empty() || !chromePath.empty();
    if (want_trace)
        setTelemetryLevel(TelemetryLevel::Full);
    else if (metrics_needed || !metricsPath.empty() ||
             !promPath.empty() || !manifestPath.empty())
        setTelemetryLevel(TelemetryLevel::Metrics);
    setProfilingEnabled(profile);
    // The Chrome export renders profiler spans on their own tracks;
    // plain --profile keeps only the cheap per-site totals.
    if (profile && !chromePath.empty())
        setProfileSpanRecording(true);

    // The ring is allocated up front, so only a traced run builds it.
    if (want_trace) {
        trace_.emplace(ring_slots, traceStride);
        setActiveTrace(&*trace_);
        // If the run dies mid-way (fatal() or an uncaught throw),
        // still salvage the ring as JSON Lines next to the requested
        // output.
        installTraceFlushOnAbort(&*trace_,
                                 tracePath.empty()
                                     ? chromePath + ".aborted.jsonl"
                                     : tracePath);
    }
}

void
RunOutputs::startClock()
{
    manifest.startedAtIso = isoTimestampUtc();
    start_ = std::chrono::steady_clock::now();
}

void
RunOutputs::stopClock()
{
    manifest.wallSeconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
}

void
RunOutputs::writeTelemetry(double tick_seconds)
{
    if (trace_) {
        setActiveTrace(nullptr);
        clearTraceFlushOnAbort();
        if (!tracePath.empty()) {
            if (tracePath.ends_with(".csv"))
                trace_->writeCsv(tracePath);
            else
                trace_->writeJsonl(tracePath);
            std::printf(
                "trace: %zu events written to %s (%llu dropped, "
                "stride %zu)\n",
                trace_->size(), tracePath.c_str(),
                static_cast<unsigned long long>(trace_->dropped()),
                trace_->tickStride());
        }
        if (!chromePath.empty()) {
            ChromeTraceOptions copts;
            copts.tickSeconds = tick_seconds;
            copts.includeProfile = profile;
            writeChromeTrace(*trace_, chromePath, copts);
            std::printf("chrome trace written to %s "
                        "(open in Perfetto or chrome://tracing)\n",
                        chromePath.c_str());
        }
    }

    if (!metricsPath.empty()) {
        MetricsRegistry::global().writeJson(metricsPath);
        std::printf("metrics: %zu metrics written to %s\n",
                    MetricsRegistry::global().size(),
                    metricsPath.c_str());
    }

    if (!promPath.empty()) {
        writePrometheus(MetricsRegistry::global(), promPath);
        std::printf("prometheus snapshot written to %s\n",
                    promPath.c_str());
    }
}

void
RunOutputs::writeProfileAndManifest(const std::string &out_prefix)
{
    if (profile) {
        std::printf("\n--- phase profile ---\n%s",
                    profileReport().c_str());
    }
    if (!manifestPath.empty())
        writeRunManifest(manifestPath, manifest);
    if (!out_prefix.empty())
        writeRunManifest(out_prefix + "_manifest.json", manifest);
}

} // namespace obs
} // namespace heb
