/**
 * @file
 * heb_availability — Monte-Carlo availability analysis under fault
 * injection.
 *
 * Runs N seeded fault scenarios per scheme (same fault histories for
 * every scheme), prints a per-scheme availability table, and
 * optionally writes the deterministic JSON summary. Scenario fan-out
 * runs on the shared thread pool; the output is bit-identical for any
 * --jobs value. Run with --help for the flags.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "util/cli.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "util/units.h"

using namespace heb;

namespace {

const char *const kUsage =
    "usage: heb_availability [--scenarios N] "
    "[--duration-hours H] [--workload NAME]\n"
    "                        [--schemes A,B,...] [--seed S] "
    "[--jobs N] [--out FILE.json]\n"
    "                        [--no-degradation] "
    "[--log-level LEVEL]\n"
    "  defaults: 100 scenarios, 8 h, workload TS, schemes "
    "BaOnly,SCFirst,HEB-D\n"
    "  --jobs sets the shared sweep pool width "
    "(HEB_JOBS honoured; default: all cores)\n";

} // namespace

int
main(int argc, char **argv)
{
    std::size_t scenarios = 100;
    double duration_hours = 8.0;
    std::string workload_name = "TS";
    std::vector<SchemeKind> schemes = {
        SchemeKind::BaOnly, SchemeKind::ScFirst, SchemeKind::HebD};
    std::uint64_t seed = 1;
    std::string out_path;
    bool degradation = true;

    CliArgs cli(argc, argv, kUsage);
    while (cli.next()) {
        if (cli.is("--scenarios"))
            scenarios = cli.count();
        else if (cli.is("--duration-hours"))
            duration_hours = cli.positive();
        else if (cli.is("--workload"))
            workload_name = cli.value();
        else if (cli.is("--schemes")) {
            schemes.clear();
            for (const std::string &name : splitList(cli.value()))
                schemes.push_back(schemeKindFromName(name));
            if (schemes.empty())
                fatal("--schemes: empty list");
        } else if (cli.is("--seed"))
            seed = static_cast<std::uint64_t>(
                cli.number<long long>());
        else if (cli.is("--out"))
            out_path = cli.value();
        else if (cli.is("--no-degradation"))
            degradation = false;
        else
            cli.unknown();
    }

    SimConfig cfg;
    cfg.durationSeconds = duration_hours * kSecondsPerHour;
    cfg.faultSeed = seed;
    cfg.degradationPolicy = degradation;
    cfg.validate();

    std::printf("%zu scenarios x %zu schemes, %s, %.1f h, seed %llu, "
                "degradation %s\n",
                scenarios, schemes.size(), workload_name.c_str(),
                duration_hours,
                static_cast<unsigned long long>(seed),
                degradation ? "on" : "off");

    std::vector<AvailabilitySummary> rows =
        availabilitySweep(cfg, workload_name, schemes, scenarios);

    TablePrinter table({"scheme", "availability", "mean ENS (Wh)",
                        "p95 ENS (Wh)", "max ENS (Wh)", "crashes",
                        "sheds", "faults"});
    for (const AvailabilitySummary &s : rows) {
        table.addRow({s.scheme,
                      TablePrinter::num(s.availability, 6),
                      TablePrinter::num(s.meanEnsWh, 3),
                      TablePrinter::num(s.p95EnsWh, 3),
                      TablePrinter::num(s.maxEnsWh, 3),
                      TablePrinter::num(s.meanCrashEvents, 2),
                      TablePrinter::num(s.meanGracefulSheds, 2),
                      TablePrinter::num(s.meanFaultsApplied, 2)});
    }
    table.print();

    if (!out_path.empty()) {
        if (writeAvailabilityJson(out_path, rows, cfg,
                                  workload_name))
            std::printf("summary written to %s\n", out_path.c_str());
        else
            return 1;
    }
    return 0;
}
