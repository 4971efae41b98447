/**
 * @file
 * heb_sim — command-line front end for the HEB simulator.
 *
 * Runs one (workload, scheme) simulation described by a key=value
 * config file (keys: simConfigFromConfig() in sim/result_io.h),
 * prints the headline metrics, and optionally exports the tick/slot
 * series and the shared run outputs (obs/run_outputs.h). Run with
 * --help for the flags. --pat loads a persisted
 * PowerAllocationTable (and saves the refined table back on exit),
 * so a long-lived deployment keeps its learning across runs. A
 * manifest is also written next to --out as `<prefix>_manifest.json`.
 */

#include <cstdio>
#include <filesystem>
#include <string>

#include "obs/run_outputs.h"
#include "sim/checkpoint.h"
#include "sim/experiment.h"
#include "sim/result_io.h"
#include "util/atomic_file.h"
#include "util/cli.h"
#include "util/config.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "workload/workload_profiles.h"

using namespace heb;

namespace {

const std::string kUsage =
    std::string(
        "usage: heb_sim [--config FILE] [--workload NAME] "
        "[--scheme NAME] [--out PREFIX] [--pat FILE]\n"
        "               [--result-json FILE] "
        "[--checkpoint-every SECONDS] [--checkpoint-dir DIR]\n"
        "               [--resume] [--jobs N] [--log-level LEVEL] "
        "[OUTPUTS]\n"
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
        "%.17g result document.\n") +
    obs::RunOutputs::usage();

} // namespace

int
main(int argc, char **argv)
{
    std::string config_path;
    std::string workload_name = "TS";
    std::string scheme_name = "HEB-D";
    std::string out_prefix;
    std::string pat_path;
    obs::RunOutputs outputs;
    CheckpointOptions ckpt;
    std::string result_json_path;

    CliArgs cli(argc, argv, kUsage);
    while (cli.next()) {
        if (outputs.parse(cli))
            continue;
        if (cli.is("--config"))
            config_path = cli.value();
        else if (cli.is("--workload"))
            workload_name = cli.value();
        else if (cli.is("--scheme"))
            scheme_name = cli.value();
        else if (cli.is("--out"))
            out_prefix = cli.value();
        else if (cli.is("--pat"))
            pat_path = cli.value();
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

    // The ring holds 256K events (16 MiB).
    outputs.begin(1 << 18, !out_prefix.empty());

    Config file_cfg = config_path.empty()
                          ? Config()
                          : Config::fromFile(config_path);
    SimConfig cfg = simConfigFromConfig(file_cfg);
    cfg.validate();
    ckpt.validate();
    if (!ckpt.dir.empty())
        std::filesystem::create_directories(ckpt.dir);
    SchemeKind kind = schemeKindFromName(scheme_name);
    HebSchemeConfig scheme_cfg;

    obs::RunManifest &manifest = outputs.manifest;
    manifest.tool = "heb_sim";
    manifest.seed = cfg.seed;
    manifest.config = describeSimConfig(cfg);
    outputs.startClock();

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
    outputs.stopClock();

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

    outputs.writeTelemetry(cfg.tickSeconds);
    outputs.writeProfileAndManifest(out_prefix);

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
