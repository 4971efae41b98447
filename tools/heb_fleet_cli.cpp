/**
 * @file
 * heb_fleet — command-line front end for the multi-rack fleet
 * simulator.
 *
 * Builds a fleet of racks (workloads cycled from a comma-separated
 * list), arbitrates a shared facility budget across them and prints
 * the fleet aggregates plus the event engine's macro-tick
 * statistics. Run with --help for the flags; the output flags it
 * shares with heb_sim are in obs/run_outputs.h.
 *
 * --slim drops per-rack results and per-tick series, keeping memory
 * flat in the rack count — the configuration for very large fleets.
 * --out writes the per-rack metrics table to PREFIX_racks.csv
 * (unavailable with --slim). --prom-out labels the per-rack series
 * {rack=...,scheme=...}; --metrics-listen serves the same body over
 * HTTP on 127.0.0.1:PORT for the duration of the run (0 =
 * ephemeral). --trace-chrome draws one track per rack with quiescent
 * macro-spans, fault windows and degradation instants. --health-out
 * writes the fleet health rollup JSON; --watch prints a heb_top-style
 * table every --health-stride simulated seconds (default 900).
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/schemes.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"
#include "obs/run_outputs.h"
#include "sim/checkpoint.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "sim/fleet_health.h"
#include "sim/plan_cache.h"
#include "sim/result_io.h"
#include "util/atomic_file.h"
#include "util/cli.h"
#include "util/format.h"
#include "util/logging.h"
#include "util/table_printer.h"

using namespace heb;

namespace {

void
printWatchSample(const FleetHealthAggregator &health, void *)
{
    std::fputs(health.textSummary().c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

const std::string kUsage =
    std::string(
        "usage: heb_fleet [--racks N] [--workloads LIST] "
        "[--scheme NAME] [--servers N] [--hours H]\n"
        "                 [--budget-w W] "
        "[--policy static|proportional] [--decorrelate-racks]\n"
        "                 [--jobs N] [--slim] [--out PREFIX] "
        "[--metrics-listen PORT]\n"
        "                 [--health-out FILE] "
        "[--health-stride SECONDS] [--watch] [--log-level LEVEL]\n"
        "                 [--checkpoint-every SECONDS] "
        "[--checkpoint-dir DIR] [--resume]\n"
        "                 [--result-json FILE] [OUTPUTS]\n"
        "  workloads: comma-separated (PR WC DA WS MS DFS HB TS), "
        "cycled across racks\n"
        "  --decorrelate-racks gives each rack its own workload "
        "seed; default shares one plan per profile\n"
        "  --slim drops per-rack results and per-tick series "
        "(memory flat in rack count)\n"
        "  --budget-w is the shared facility feed (default one "
        "rack's scaled budget per rack: 260 W per 6 servers);\n"
        "  a grid feed below the fleet's idle draw is fatal\n"
        "  --metrics-listen serves the Prometheus exposition on "
        "127.0.0.1:PORT\n"
        "  --health-out writes the fleet health rollup JSON; "
        "--watch prints a live table every --health-stride s\n"
        "  --checkpoint-every writes resumable snapshots (one "
        "shard per rack + a manifest) every N sim-seconds\n"
        "  into --checkpoint-dir; --resume restarts from the "
        "newest valid one, even under a different --jobs.\n"
        "  --result-json writes the full %.17g fleet result "
        "document (the resume byte-identity witness)\n"
        "  --jobs N ticks racks on N in-process threads "
        "(default HEB_JOBS, else one per core); results are\n"
        "  byte-identical for every N\n") +
    obs::RunOutputs::usage();

} // namespace

int
main(int argc, char **argv)
{
    std::size_t racks = 4;
    std::string workload_list = "TS,WC,MS,WS";
    std::string scheme_name = "HEB-D";
    std::size_t servers = 0; // 0 -> SimConfig default
    double hours = 0.0;      // 0 -> SimConfig default
    double budget_w = 0.0;   // 0 -> the scaled rack budget per rack
    FleetOptions options;
    options.policy = BudgetPolicy::Proportional;
    bool slim = false;
    std::string out_prefix;
    obs::RunOutputs outputs;
    std::string health_path;
    double health_stride = 900.0;
    bool watch = false;
    bool decorrelate_racks = false;
    bool listen = false;
    long listen_port = 0;
    CheckpointOptions ckpt;
    std::string result_json_path;

    CliArgs cli(argc, argv, kUsage);
    while (cli.next()) {
        if (outputs.parse(cli))
            continue;
        if (cli.is("--racks"))
            racks = cli.count();
        else if (cli.is("--workloads"))
            workload_list = cli.value();
        else if (cli.is("--scheme"))
            scheme_name = cli.value();
        else if (cli.is("--servers"))
            servers = cli.count();
        else if (cli.is("--hours"))
            hours = cli.positive();
        else if (cli.is("--budget-w"))
            budget_w = cli.positive();
        else if (cli.is("--policy")) {
            std::string v = cli.value();
            if (v == "static")
                options.policy = BudgetPolicy::Static;
            else if (v == "proportional")
                options.policy = BudgetPolicy::Proportional;
            else
                fatal("--policy expects static or proportional");
        } else if (cli.is("--slim"))
            slim = true;
        else if (cli.is("--out"))
            out_prefix = cli.value();
        else if (cli.is("--metrics-listen")) {
            listen_port = cli.number<long>();
            if (listen_port < 0 || listen_port > 65535)
                fatal("--metrics-listen expects a port (0-65535)");
            listen = true;
        } else if (cli.is("--health-out"))
            health_path = cli.value();
        else if (cli.is("--health-stride"))
            health_stride = cli.positive();
        else if (cli.is("--watch"))
            watch = true;
        else if (cli.is("--decorrelate-racks"))
            decorrelate_racks = true;
        else if (cli.is("--checkpoint-every"))
            ckpt.everySimSeconds = cli.number<double>();
        else if (cli.is("--checkpoint-dir"))
            ckpt.dir = cli.value();
        else if (cli.is("--resume"))
            ckpt.resume = true;
        else if (cli.is("--result-json"))
            result_json_path = cli.value();
        else
            cli.unknown();
    }
    if (slim && !out_prefix.empty())
        fatal("--out needs per-rack results; drop --slim");
    ckpt.validate();
    if (!ckpt.dir.empty())
        std::filesystem::create_directories(ckpt.dir);

    std::vector<std::string> names = splitList(workload_list);
    if (names.empty())
        fatal("--workloads must name at least one workload");

    // The health aggregator is what publishes the per-rack labeled
    // metric families, so any metrics consumer implies health.
    const bool want_health = !health_path.empty() || watch ||
                             !outputs.promPath.empty() ||
                             !outputs.metricsPath.empty() || listen;
    // Fleet traces fan out over every rack: 1M slots (64 MiB) keep
    // the tail of a multi-rack day at stride 1.
    outputs.begin(1 << 20, want_health || !out_prefix.empty());

    SimConfig cfg;
    if (servers != 0)
        cfg.scaleServers(servers);
    if (hours > 0.0)
        cfg.durationSeconds = hours * 3600.0;
    if (budget_w <= 0.0)
        budget_w = cfg.budgetW * static_cast<double>(racks);
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
    SchemeKind kind = schemeKindFromName(scheme_name);
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

    obs::RunManifest &manifest = outputs.manifest;
    manifest.tool = "heb_fleet";
    manifest.seed = cfg.seed;
    manifest.config = describeSimConfig(cfg);
    manifest.config.emplace_back("racks", std::to_string(racks));
    manifest.config.emplace_back("policy",
                                 budgetPolicyName(options.policy));
    manifest.config.emplace_back("facility_budget_w",
                                 formatRoundTrip(budget_w));
    manifest.schemeName = scheme_name;
    manifest.workloadName = workload_list;
    outputs.startClock();

    FleetHealthAggregator health;
    options.keepPerRackResults = !slim;
    if (want_health) {
        options.health = &health;
        options.healthSampleSeconds = health_stride;
        if (watch)
            options.onHealthSample = printWatchSample;
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
    outputs.stopClock();

    TablePrinter table({"metric", "value"});
    table.addRow({"racks", std::to_string(racks)});
    table.addRow({"policy", budgetPolicyName(options.policy)});
    table.addRow({"engine", fleetModeName(options.mode)});
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
    table.addRow({"macro-spans", std::to_string(result.macroSpans)});
    table.addRow({"macro-span ticks",
                  std::to_string(result.macroSpanTicks)});
    table.addRow({"dense ticks", std::to_string(result.denseTicks)});
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

    outputs.writeTelemetry(cfg.tickSeconds);

    if (!health_path.empty()) {
        health.writeJson(health_path);
        std::printf("fleet health written to %s\n",
                    health_path.c_str());
    }

    outputs.writeProfileAndManifest(out_prefix);

    if (server) {
        std::printf("metrics endpoint served %llu scrapes\n",
                    static_cast<unsigned long long>(
                        server->requestsServed()));
        server->stop();
    }
    return 0;
}
