/**
 * @file
 * heb_sim — command-line front end for the HEB simulator.
 *
 * Runs one (workload, scheme) simulation described by a key=value
 * config file, prints the headline metrics, and optionally exports
 * the tick/slot series, a per-event trace, a metrics dump, a phase
 * profile and a run-provenance manifest.
 *
 * Usage:
 *   heb_sim [--config FILE] [--workload NAME] [--scheme NAME]
 *           [--out PREFIX] [--pat FILE]
 *           [--trace-out FILE] [--trace-stride N]
 *           [--trace-chrome FILE] [--metrics-out FILE]
 *           [--prom-out FILE] [--manifest FILE]
 *           [--profile] [--log-level LEVEL]
 *           [--checkpoint-every SECONDS] [--checkpoint-dir DIR]
 *           [--resume] [--result-json FILE]
 *
 * Config keys: see simConfigFromConfig() in sim/result_io.h.
 * --pat loads a persisted PowerAllocationTable (and saves the
 * refined table back on exit), so a long-lived deployment keeps its
 * learning across runs.
 *
 * Telemetry is off (zero-cost) unless --trace-out, --trace-chrome,
 * --metrics-out, --prom-out or --profile asks for it. A trace file
 * ending in .csv is written as CSV; anything else is JSON Lines.
 * --trace-chrome renders the same ring as Chrome trace_event JSON
 * (Perfetto / chrome://tracing); --prom-out snapshots the metric
 * registry as Prometheus text exposition. A manifest is written
 * wherever --manifest points, and next to --out as
 * `<prefix>_manifest.json`.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>

#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "obs/trace_event.h"
#include "sim/checkpoint.h"
#include "util/atomic_file.h"
#include "sim/experiment.h"
#include "sim/result_io.h"
#include "util/config.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "workload/workload_profiles.h"

using namespace heb;

namespace {

SchemeKind
parseScheme(const std::string &name)
{
    for (SchemeKind kind : allSchemeKinds()) {
        if (name == schemeKindName(kind))
            return kind;
    }
    fatal("unknown scheme '", name,
          "' (expected BaOnly/BaFirst/SCFirst/HEB-F/HEB-S/HEB-D)");
}

void
usage()
{
    std::printf(
        "usage: heb_sim [--config FILE] [--workload NAME] "
        "[--scheme NAME] [--out PREFIX] [--pat FILE]\n"
        "               [--trace-out FILE] [--trace-stride N] "
        "[--trace-chrome FILE] [--metrics-out FILE]\n"
        "               [--prom-out FILE] [--manifest FILE] "
        "[--profile] [--log-level LEVEL]\n"
        "               [--jobs N]\n"
        "               [--checkpoint-every SECONDS] "
        "[--checkpoint-dir DIR] [--resume]\n"
        "               [--result-json FILE]\n"
        "  workloads: PR WC DA WS MS DFS HB TS\n"
        "  schemes:   BaOnly BaFirst SCFirst HEB-F HEB-S HEB-D\n"
        "  log levels: panic fatal warn info debug "
        "(HEB_LOG_LEVEL honoured)\n"
        "  --jobs sets the shared sweep pool width "
        "(HEB_JOBS honoured; default: all cores)\n"
        "  --checkpoint-every writes a resumable snapshot every N "
        "sim-seconds into --checkpoint-dir,\n"
        "  in the one-rack fleet format (fleet-<tick>.ckpt plus "
        "fleet-<tick>-rack0.ckpt);\n"
        "  --resume restarts from the newest valid snapshot there. "
        "The final result is byte-identical\n"
        "  to an uninterrupted run. --result-json writes the full "
        "%%.17g result document.\n");
}

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string config_path;
    std::string workload_name = "TS";
    std::string scheme_name = "HEB-D";
    std::string out_prefix;
    std::string pat_path;
    std::string trace_path;
    std::string chrome_path;
    std::string metrics_path;
    std::string prom_path;
    std::string manifest_path;
    std::size_t trace_stride = 1;
    bool profile = false;
    CheckpointOptions ckpt;
    std::string result_json_path;

    for (int i = 1; i < argc; ++i) {
        auto need_value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                fatal(flag, " requires a value");
            return argv[++i];
        };
        auto need_long = [&](const char *flag) {
            return parseNumber<long>(need_value(flag), flag);
        };
        auto need_double = [&](const char *flag) {
            return parseNumber<double>(need_value(flag), flag);
        };
        if (!std::strcmp(argv[i], "--config"))
            config_path = need_value("--config");
        else if (!std::strcmp(argv[i], "--workload"))
            workload_name = need_value("--workload");
        else if (!std::strcmp(argv[i], "--scheme"))
            scheme_name = need_value("--scheme");
        else if (!std::strcmp(argv[i], "--out"))
            out_prefix = need_value("--out");
        else if (!std::strcmp(argv[i], "--pat"))
            pat_path = need_value("--pat");
        else if (!std::strcmp(argv[i], "--trace-out"))
            trace_path = need_value("--trace-out");
        else if (!std::strcmp(argv[i], "--trace-chrome"))
            chrome_path = need_value("--trace-chrome");
        else if (!std::strcmp(argv[i], "--trace-stride")) {
            long n = need_long("--trace-stride");
            if (n < 1)
                fatal("--trace-stride must be >= 1");
            trace_stride = static_cast<std::size_t>(n);
        } else if (!std::strcmp(argv[i], "--metrics-out"))
            metrics_path = need_value("--metrics-out");
        else if (!std::strcmp(argv[i], "--prom-out"))
            prom_path = need_value("--prom-out");
        else if (!std::strcmp(argv[i], "--manifest"))
            manifest_path = need_value("--manifest");
        else if (!std::strcmp(argv[i], "--profile"))
            profile = true;
        else if (!std::strcmp(argv[i], "--checkpoint-every"))
            ckpt.everySimSeconds = need_double("--checkpoint-every");
        else if (!std::strcmp(argv[i], "--checkpoint-dir"))
            ckpt.dir = need_value("--checkpoint-dir");
        else if (!std::strcmp(argv[i], "--resume"))
            ckpt.resume = true;
        else if (!std::strcmp(argv[i], "--result-json"))
            result_json_path = need_value("--result-json");
        else if (!std::strcmp(argv[i], "--jobs")) {
            ThreadPool::configureGlobal(ThreadPool::parseJobs(
                need_value("--jobs"), "--jobs"));
        } else if (!std::strcmp(argv[i], "--log-level"))
            setLogThreshold(parseLogLevel(need_value("--log-level")));
        else if (!std::strcmp(argv[i], "--help") ||
                 !std::strcmp(argv[i], "-h")) {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown argument '", argv[i], "'");
        }
    }

    // Telemetry stays zero-cost unless an output asks for it.
    const bool want_trace =
        !trace_path.empty() || !chrome_path.empty();
    if (want_trace)
        obs::setTelemetryLevel(obs::TelemetryLevel::Full);
    else if (!metrics_path.empty() || !prom_path.empty() ||
             !manifest_path.empty() || !out_prefix.empty())
        obs::setTelemetryLevel(obs::TelemetryLevel::Metrics);
    obs::setProfilingEnabled(profile);
    if (profile && !chrome_path.empty())
        obs::setProfileSpanRecording(true);

    // The ring is allocated up front (16 MiB), so only a traced run
    // builds it.
    std::optional<obs::TraceRecorder> trace;
    if (want_trace) {
        trace.emplace(1 << 18, trace_stride);
        obs::setActiveTrace(&*trace);
        // Salvage the ring as JSON Lines if the run dies mid-way.
        obs::installTraceFlushOnAbort(
            &*trace, trace_path.empty()
                        ? chrome_path + ".aborted.jsonl"
                        : trace_path);
    }

    Config file_cfg = config_path.empty()
                          ? Config()
                          : Config::fromFile(config_path);
    SimConfig cfg = simConfigFromConfig(file_cfg);
    cfg.validate();
    ckpt.validate();
    if (!ckpt.dir.empty())
        std::filesystem::create_directories(ckpt.dir);
    SchemeKind kind = parseScheme(scheme_name);
    HebSchemeConfig scheme_cfg;

    obs::RunManifest manifest;
    manifest.tool = "heb_sim";
    manifest.seed = cfg.seed;
    manifest.config = describeSimConfig(cfg);
    manifest.startedAtIso = isoTimestampUtc();
    auto wall_start = std::chrono::steady_clock::now();

    // Load the persisted allocation table when one exists, else run
    // the pilot profiling.
    PowerAllocationTable pat(scheme_cfg.patGrid, scheme_cfg.deltaR);
    if (!pat_path.empty() &&
        std::filesystem::exists(pat_path)) {
        pat = PowerAllocationTable::loadCsv(
            pat_path, scheme_cfg.patGrid, scheme_cfg.deltaR);
        inform("loaded ", pat.size(), " PAT entries from ",
               pat_path);
    }
    if (pat.size() == 0)
        pat = buildSeededPat(cfg, scheme_cfg);

    auto workload = makeWorkload(workload_name, cfg.seed);
    auto scheme = makeScheme(kind, scheme_cfg, &pat);
    Simulator sim(cfg);
    SimResult r = sim.run(*workload, *scheme, ckpt);

    manifest.schemeName = r.schemeName;
    manifest.workloadName = r.workloadName;
    manifest.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall_start)
            .count();

    TablePrinter table({"metric", "value"});
    table.addRow({"scheme", r.schemeName});
    table.addRow({"workload", r.workloadName});
    table.addRow({"duration (h)",
                  TablePrinter::num(r.durationSeconds / 3600.0, 1)});
    table.addRow({"buffer efficiency",
                  TablePrinter::num(r.energyEfficiency, 3)});
    table.addRow({"effective efficiency",
                  TablePrinter::num(r.effectiveEfficiency, 3)});
    table.addRow({"downtime (s)",
                  TablePrinter::num(r.downtimeSeconds, 0)});
    table.addRow({"battery lifetime (y)",
                  TablePrinter::num(r.batteryLifetimeYears, 2)});
    table.addRow({"REU", TablePrinter::num(r.reu, 3)});
    table.addRow({"buffer->load (Wh)",
                  TablePrinter::num(r.ledger.bufferToLoadWh(), 1)});
    table.addRow({"unserved (Wh)",
                  TablePrinter::num(r.ledger.unservedWh, 2)});
    table.addRow({"peak draw (W)",
                  TablePrinter::num(r.peakUtilityDrawW, 1)});
    table.addRow({"relay actuations",
                  std::to_string(r.switchActuations)});
    table.print();

    if (!result_json_path.empty()) {
        if (writeFileAtomic(result_json_path,
                                simResultToJson(r)))
            std::printf("result json written to %s\n",
                        result_json_path.c_str());
    }

    if (!out_prefix.empty()) {
        writeResultSeries(r, out_prefix);
        writeResultMetrics({r}, out_prefix + "_metrics.csv");
        std::printf("series written to %s_{ticks,slots}.csv, "
                    "metrics to %s_metrics.csv\n",
                    out_prefix.c_str(), out_prefix.c_str());
    }

    if (want_trace) {
        obs::setActiveTrace(nullptr);
        obs::clearTraceFlushOnAbort();
        if (!trace_path.empty()) {
            if (endsWith(trace_path, ".csv"))
                trace->writeCsv(trace_path);
            else
                trace->writeJsonl(trace_path);
            std::printf(
                "trace: %zu events written to %s (%llu dropped, "
                "stride %zu)\n",
                trace->size(), trace_path.c_str(),
                static_cast<unsigned long long>(trace->dropped()),
                trace->tickStride());
        }
        if (!chrome_path.empty()) {
            obs::ChromeTraceOptions copts;
            copts.tickSeconds = cfg.tickSeconds;
            copts.includeProfile = profile;
            obs::writeChromeTrace(*trace, chrome_path, copts);
            std::printf("chrome trace written to %s "
                        "(open in Perfetto or chrome://tracing)\n",
                        chrome_path.c_str());
        }
    }

    if (!metrics_path.empty()) {
        obs::MetricsRegistry::global().writeJson(metrics_path);
        std::printf("metrics: %zu metrics written to %s\n",
                    obs::MetricsRegistry::global().size(),
                    metrics_path.c_str());
    }

    if (!prom_path.empty()) {
        obs::writePrometheus(obs::MetricsRegistry::global(),
                             prom_path);
        std::printf("prometheus snapshot written to %s\n",
                    prom_path.c_str());
    }

    if (profile) {
        std::printf("\n--- phase profile ---\n%s",
                    obs::profileReport().c_str());
    }

    if (!manifest_path.empty())
        obs::writeRunManifest(manifest_path, manifest);
    if (!out_prefix.empty())
        obs::writeRunManifest(out_prefix + "_manifest.json",
                              manifest);

    if (!pat_path.empty()) {
        // Persist the refined table: the HEB schemes keep learning.
        const auto *heb =
            dynamic_cast<const HebScheme *>(scheme.get());
        if (heb) {
            heb->pat().saveCsv(pat_path);
            std::printf("allocation table (%zu entries) saved to "
                        "%s\n",
                        heb->pat().size(), pat_path.c_str());
        }
    }
    return 0;
}
