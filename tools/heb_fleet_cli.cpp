/**
 * @file
 * heb_fleet — command-line front end for the multi-rack fleet
 * simulator.
 *
 * Builds a fleet of racks (workloads cycled from a comma-separated
 * list), arbitrates a shared facility budget across them and prints
 * the fleet aggregates plus the engine's macro-tick statistics.
 *
 * Usage:
 *   heb_fleet [--racks N] [--workloads LIST] [--scheme NAME]
 *             [--servers N] [--hours H] [--budget-w W]
 *             [--policy static|proportional]
 *             [--fleet-mode dense|event] [--jobs N] [--slim]
 *             [--out PREFIX] [--metrics-out FILE] [--prom-out FILE]
 *             [--metrics-listen PORT] [--trace-out FILE]
 *             [--trace-chrome FILE] [--trace-stride N]
 *             [--health-out FILE] [--health-stride SECONDS]
 *             [--watch] [--manifest FILE] [--profile]
 *             [--log-level LEVEL]
 *             [--checkpoint-every SECONDS] [--checkpoint-dir DIR]
 *             [--resume] [--result-json FILE]
 *
 * --fleet-mode selects the execution engine: dense per-tick
 * stepping, or the event engine that advances fleet-wide quiescent
 * spans in macro-ticks (results are identical either way; event is
 * faster the calmer the fleet). --slim drops per-rack results and
 * per-tick series, keeping memory flat in the rack count — the
 * configuration for very large fleets. --out writes the per-rack
 * metrics table to PREFIX_racks.csv (unavailable with --slim).
 *
 * Telemetry is off (zero-cost) unless an output asks for it:
 *  - --prom-out snapshots the metric registry as Prometheus text
 *    exposition (per-rack series labeled {rack=...,scheme=...});
 *    --metrics-listen serves the same body over HTTP on
 *    127.0.0.1:PORT for the duration of the run (0 = ephemeral).
 *  - --trace-chrome renders the event trace as Chrome trace_event
 *    JSON (load into Perfetto / chrome://tracing): one track per
 *    rack with quiescent macro-spans, fault windows and
 *    degradation instants; --profile adds a wall-time profiler
 *    process with per-thread span tracks.
 *  - --health-out writes the fleet health rollup JSON; --watch
 *    prints a heb_top-style table every --health-stride simulated
 *    seconds (default 900).
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/schemes.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"
#include "obs/profile.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "obs/trace_event.h"
#include "sim/checkpoint.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "sim/fleet_health.h"
#include "sim/plan_cache.h"
#include "sim/result_io.h"
#include "util/atomic_file.h"
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

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : list) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

void
printWatchSample(const FleetHealthAggregator &health, void *)
{
    std::fputs(health.textSummary().c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

void
usage()
{
    std::printf(
        "usage: heb_fleet [--racks N] [--workloads LIST] "
        "[--scheme NAME] [--servers N] [--hours H]\n"
        "                 [--budget-w W] "
        "[--policy static|proportional] "
        "[--fleet-mode dense|event]\n"
        "                 [--jobs N] [--slim] "
        "[--out PREFIX] "
        "[--metrics-out FILE] [--prom-out FILE]\n"
        "                 [--metrics-listen PORT] "
        "[--trace-out FILE] [--trace-chrome FILE] "
        "[--trace-stride N]\n"
        "                 [--health-out FILE] "
        "[--health-stride SECONDS] [--watch] [--manifest FILE]\n"
        "                 [--profile] [--log-level LEVEL] "
        "[--decorrelate-racks]\n"
        "                 [--checkpoint-every SECONDS] "
        "[--checkpoint-dir DIR] [--resume] "
        "[--result-json FILE]\n"
        "  workloads: comma-separated (PR WC DA WS MS DFS HB TS), "
        "cycled across racks\n"
        "  --decorrelate-racks gives each rack its own workload "
        "seed; default shares one plan per profile\n"
        "  --fleet-mode event advances fleet-wide quiescent spans "
        "in macro-ticks (identical results)\n"
        "  --slim drops per-rack results and per-tick series "
        "(memory flat in rack count)\n"
        "  --budget-w is the shared facility feed (default 260 W "
        "per 6 servers per rack: 260 W per rack at the default "
        "--servers 6)\n"
        "  --prom-out writes a Prometheus text-exposition snapshot; "
        "--metrics-listen serves it on 127.0.0.1:PORT\n"
        "  --trace-chrome writes Chrome trace_event JSON "
        "(Perfetto / chrome://tracing), one track per rack\n"
        "  --health-out writes the fleet health rollup JSON; "
        "--watch prints a live table every --health-stride s\n"
        "  --checkpoint-every writes resumable snapshots (one "
        "shard per rack + a manifest) every N sim-seconds\n"
        "  into --checkpoint-dir; --resume restarts from the "
        "newest valid one, even under a different --jobs.\n"
        "  --result-json writes the full %%.17g fleet result "
        "document (the resume byte-identity witness)\n"
        "  --jobs N ticks racks on N in-process threads "
        "(default HEB_JOBS, else one per core); results are\n"
        "  byte-identical for every N\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t racks = 4;
    std::string workload_list = "TS,WC,MS,WS";
    std::string scheme_name = "HEB-D";
    std::size_t servers = 0; // 0 -> SimConfig default
    double hours = 0.0;      // 0 -> SimConfig default
    double budget_w = 0.0;   // 0 -> 260 W per 6 servers per rack
    BudgetPolicy policy = BudgetPolicy::Proportional;
    FleetMode mode = FleetMode::Event;
    bool slim = false;
    std::string out_prefix;
    std::string metrics_path;
    std::string prom_path;
    std::string trace_path;
    std::string chrome_path;
    std::string health_path;
    std::string manifest_path;
    std::size_t trace_stride = 1;
    double health_stride = 900.0;
    bool watch = false;
    bool profile = false;
    bool decorrelate_racks = false;
    bool listen = false;
    long listen_port = 0;
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
        if (!std::strcmp(argv[i], "--racks")) {
            long n = need_long("--racks");
            if (n < 1)
                fatal("--racks must be >= 1");
            racks = static_cast<std::size_t>(n);
        } else if (!std::strcmp(argv[i], "--workloads"))
            workload_list = need_value("--workloads");
        else if (!std::strcmp(argv[i], "--scheme"))
            scheme_name = need_value("--scheme");
        else if (!std::strcmp(argv[i], "--servers")) {
            long n = need_long("--servers");
            if (n < 1)
                fatal("--servers must be >= 1");
            servers = static_cast<std::size_t>(n);
        } else if (!std::strcmp(argv[i], "--hours")) {
            hours = need_double("--hours");
            if (!std::isfinite(hours) || hours <= 0.0)
                fatal("--hours must be finite and positive (got ", hours,
                      ")");
        } else if (!std::strcmp(argv[i], "--budget-w")) {
            budget_w = need_double("--budget-w");
            if (!std::isfinite(budget_w) || budget_w <= 0.0)
                fatal("--budget-w must be finite and positive (got ",
                      budget_w, ")");
        } else if (!std::strcmp(argv[i], "--policy")) {
            std::string v = need_value("--policy");
            if (v == "static")
                policy = BudgetPolicy::Static;
            else if (v == "proportional")
                policy = BudgetPolicy::Proportional;
            else
                fatal("--policy expects static or proportional");
        } else if (!std::strcmp(argv[i], "--fleet-mode")) {
            std::string v = need_value("--fleet-mode");
            if (v == "dense")
                mode = FleetMode::Dense;
            else if (v == "event")
                mode = FleetMode::Event;
            else
                fatal("--fleet-mode expects dense or event");
        } else if (!std::strcmp(argv[i], "--jobs")) {
            ThreadPool::configureGlobal(ThreadPool::parseJobs(
                need_value("--jobs"), "--jobs"));
        } else if (!std::strcmp(argv[i], "--slim"))
            slim = true;
        else if (!std::strcmp(argv[i], "--out"))
            out_prefix = need_value("--out");
        else if (!std::strcmp(argv[i], "--metrics-out"))
            metrics_path = need_value("--metrics-out");
        else if (!std::strcmp(argv[i], "--prom-out"))
            prom_path = need_value("--prom-out");
        else if (!std::strcmp(argv[i], "--metrics-listen")) {
            listen_port = need_long("--metrics-listen");
            if (listen_port < 0 || listen_port > 65535)
                fatal("--metrics-listen expects a port (0-65535)");
            listen = true;
        } else if (!std::strcmp(argv[i], "--trace-out"))
            trace_path = need_value("--trace-out");
        else if (!std::strcmp(argv[i], "--trace-chrome"))
            chrome_path = need_value("--trace-chrome");
        else if (!std::strcmp(argv[i], "--trace-stride")) {
            long n = need_long("--trace-stride");
            if (n < 1)
                fatal("--trace-stride must be >= 1");
            trace_stride = static_cast<std::size_t>(n);
        } else if (!std::strcmp(argv[i], "--health-out"))
            health_path = need_value("--health-out");
        else if (!std::strcmp(argv[i], "--health-stride")) {
            health_stride = need_double("--health-stride");
            if (health_stride <= 0.0)
                fatal("--health-stride must be positive");
        } else if (!std::strcmp(argv[i], "--watch"))
            watch = true;
        else if (!std::strcmp(argv[i], "--manifest"))
            manifest_path = need_value("--manifest");
        else if (!std::strcmp(argv[i], "--profile"))
            profile = true;
        else if (!std::strcmp(argv[i], "--decorrelate-racks"))
            decorrelate_racks = true;
        else if (!std::strcmp(argv[i], "--checkpoint-every"))
            ckpt.everySimSeconds = need_double("--checkpoint-every");
        else if (!std::strcmp(argv[i], "--checkpoint-dir"))
            ckpt.dir = need_value("--checkpoint-dir");
        else if (!std::strcmp(argv[i], "--resume"))
            ckpt.resume = true;
        else if (!std::strcmp(argv[i], "--result-json"))
            result_json_path = need_value("--result-json");
        else if (!std::strcmp(argv[i], "--log-level"))
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
    if (slim && !out_prefix.empty())
        fatal("--out needs per-rack results; drop --slim");
    ckpt.validate();
    if (!ckpt.dir.empty())
        std::filesystem::create_directories(ckpt.dir);

    std::vector<std::string> names = splitList(workload_list);
    if (names.empty())
        fatal("--workloads must name at least one workload");

    // Telemetry stays zero-cost unless an output asks for it. The
    // health aggregator is what publishes the per-rack labeled
    // metric families, so any metrics consumer implies health.
    const bool want_trace =
        !trace_path.empty() || !chrome_path.empty();
    const bool want_health = !health_path.empty() || watch ||
                             !prom_path.empty() ||
                             !metrics_path.empty() || listen;
    if (want_trace)
        obs::setTelemetryLevel(obs::TelemetryLevel::Full);
    else if (want_health || !manifest_path.empty() ||
             !out_prefix.empty())
        obs::setTelemetryLevel(obs::TelemetryLevel::Metrics);
    obs::setProfilingEnabled(profile);
    // The Chrome export renders profiler spans on their own tracks;
    // plain --profile keeps only the cheap per-site totals.
    if (profile && !chrome_path.empty())
        obs::setProfileSpanRecording(true);

    // Fleet traces fan out over every rack: give the ring 1M slots
    // so a multi-rack day at stride 1 keeps its tail. The ring is
    // allocated up front (64 MiB), so only a traced run builds it.
    std::optional<obs::TraceRecorder> trace;
    if (want_trace) {
        trace.emplace(1 << 20, trace_stride);
        obs::setActiveTrace(&*trace);
        // If the run dies mid-way (fatal() or an uncaught throw),
        // still salvage the ring as JSON Lines next to the
        // requested output.
        obs::installTraceFlushOnAbort(
            &*trace, trace_path.empty()
                        ? chrome_path + ".aborted.jsonl"
                        : trace_path);
    }

    SimConfig cfg;
    if (servers != 0) {
        // Scale the banks with the cluster: the defaults size a
        // six-server rack.
        double scale = static_cast<double>(servers) /
                       static_cast<double>(cfg.numServers);
        cfg.numServers = servers;
        cfg.scEnergyWh *= scale;
        cfg.baEnergyWh *= scale;
    }
    if (hours > 0.0)
        cfg.durationSeconds = hours * 3600.0;
    if (budget_w <= 0.0) {
        // The paper rack's ratio: 260 W per six servers.
        budget_w = 260.0 * static_cast<double>(cfg.numServers) / 6.0 *
                   static_cast<double>(racks);
    }
    if (slim)
        cfg.recordSeries = false;
    cfg.validate();

    // Workload plans are immutable and the Workload contract is
    // const, so racks cycling the same profile share one cached
    // plan: the default seeds by profile position, giving every
    // "TS" rack the identical plan built once. --decorrelate-racks
    // restores a distinct seed (and plan) per rack for studies that
    // need independent rack behavior.
    std::vector<std::shared_ptr<const SyntheticWorkload>> workloads;
    std::vector<std::unique_ptr<ManagementScheme>> schemes;
    std::vector<RackSpec> specs;
    SchemeKind kind = parseScheme(scheme_name);
    for (std::size_t r = 0; r < racks; ++r) {
        std::uint64_t wl_seed =
            cfg.seed + (decorrelate_racks ? r : r % names.size());
        workloads.push_back(SharedPlanCache::global().workload(
            names[r % names.size()], wl_seed));
        schemes.push_back(makeScheme(kind));
        specs.push_back(RackSpec{"rack" + std::to_string(r),
                                 workloads[r].get(),
                                 schemes[r].get()});
    }

    obs::RunManifest manifest;
    manifest.tool = "heb_fleet";
    manifest.seed = cfg.seed;
    manifest.config = describeSimConfig(cfg);
    manifest.schemeName = scheme_name;
    manifest.workloadName = workload_list;
    manifest.startedAtIso = isoTimestampUtc();
    auto wall_start = std::chrono::steady_clock::now();

    FleetHealthAggregator health;
    FleetOptions options{policy, mode, !slim};
    if (want_health) {
        options.health = &health;
        options.healthSampleSeconds = health_stride;
        if (watch) {
            options.onHealthSample = printWatchSample;
            options.onHealthSampleUser = nullptr;
        }
    }

    std::unique_ptr<obs::MetricsHttpServer> server;
    if (listen) {
        server = std::make_unique<obs::MetricsHttpServer>(
            obs::MetricsRegistry::global(),
            static_cast<std::uint16_t>(listen_port));
        std::printf("metrics endpoint on http://127.0.0.1:%u/ "
                    "(any GET path serves the exposition)\n",
                    static_cast<unsigned>(server->port()));
        std::fflush(stdout);
    }

    FleetSimulator fleet(cfg, budget_w, options);
    FleetResult result = fleet.run(specs, ckpt);

    manifest.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall_start)
            .count();

    TablePrinter table({"metric", "value"});
    table.addRow({"racks", std::to_string(racks)});
    table.addRow({"policy", budgetPolicyName(policy)});
    table.addRow({"engine", fleetModeName(mode)});
    table.addRow({"facility budget (W)",
                  TablePrinter::num(budget_w, 0)});
    table.addRow({"facility peak (W)",
                  TablePrinter::num(result.facilityPeakDrawW, 1)});
    table.addRow({"served (Wh)",
                  TablePrinter::num(result.totalServedWh, 1)});
    table.addRow({"unserved (Wh)",
                  TablePrinter::num(result.totalUnservedWh, 2)});
    table.addRow({"downtime (s)",
                  TablePrinter::num(result.totalDowntimeSeconds,
                                    0)});
    table.addRow({"mean EE (served-weighted)",
                  TablePrinter::num(result.meanEfficiency, 3)});
    table.addRow({"mean EE (unweighted)",
                  TablePrinter::num(result.meanEfficiencyUnweighted,
                                    3)});
    if (mode == FleetMode::Event) {
        table.addRow({"macro-spans",
                      std::to_string(result.macroSpans)});
        table.addRow({"macro-span ticks",
                      std::to_string(result.macroSpanTicks)});
        table.addRow({"dense ticks",
                      std::to_string(result.denseTicks)});
    }
    table.print();

    if (!result_json_path.empty()) {
        if (writeFileAtomic(result_json_path,
                            fleetResultToJson(result)))
            std::printf("fleet result json written to %s\n",
                        result_json_path.c_str());
    }

    if (!out_prefix.empty()) {
        writeResultMetrics(result.racks,
                           out_prefix + "_racks.csv");
        std::printf("per-rack metrics written to %s_racks.csv\n",
                    out_prefix.c_str());
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

    if (!health_path.empty()) {
        health.writeJson(health_path);
        std::printf("fleet health written to %s\n",
                    health_path.c_str());
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

    if (server) {
        std::printf("metrics endpoint served %llu scrapes\n",
                    static_cast<unsigned long long>(
                        server->requestsServed()));
        server->stop();
    }
    return 0;
}
