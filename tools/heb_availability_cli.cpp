/**
 * @file
 * heb_availability — Monte-Carlo availability analysis under fault
 * injection.
 *
 * Runs N seeded fault scenarios per scheme (same fault histories for
 * every scheme), prints a per-scheme availability table, and
 * optionally writes the deterministic JSON summary. Scenario fan-out
 * runs on the shared thread pool; the output is bit-identical for any
 * --jobs value.
 *
 * Usage:
 *   heb_availability [--scenarios N] [--duration-hours H]
 *                    [--workload NAME] [--schemes A,B,...]
 *                    [--seed S] [--jobs N] [--out FILE.json]
 *                    [--no-degradation] [--log-level LEVEL]
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "util/config.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/units.h"

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

std::vector<SchemeKind>
parseSchemeList(const std::string &list)
{
    std::vector<SchemeKind> kinds;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        if (comma > pos)
            kinds.push_back(
                parseScheme(list.substr(pos, comma - pos)));
        pos = comma + 1;
    }
    if (kinds.empty())
        fatal("--schemes: empty list");
    return kinds;
}

void
usage()
{
    std::printf(
        "usage: heb_availability [--scenarios N] "
        "[--duration-hours H] [--workload NAME]\n"
        "                        [--schemes A,B,...] [--seed S] "
        "[--jobs N] [--out FILE.json]\n"
        "                        [--no-degradation] "
        "[--log-level LEVEL]\n"
        "  defaults: 100 scenarios, 8 h, workload TS, schemes "
        "BaOnly,SCFirst,HEB-D\n"
        "  --jobs sets the shared sweep pool width "
        "(HEB_JOBS honoured; default: all cores)\n");
}

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
        if (!std::strcmp(argv[i], "--scenarios")) {
            long n = need_long("--scenarios");
            if (n < 1)
                fatal("--scenarios must be >= 1");
            scenarios = static_cast<std::size_t>(n);
        } else if (!std::strcmp(argv[i], "--duration-hours")) {
            duration_hours = need_double("--duration-hours");
            if (duration_hours <= 0.0)
                fatal("--duration-hours must be positive");
        } else if (!std::strcmp(argv[i], "--workload"))
            workload_name = need_value("--workload");
        else if (!std::strcmp(argv[i], "--schemes"))
            schemes = parseSchemeList(need_value("--schemes"));
        else if (!std::strcmp(argv[i], "--seed"))
            seed = static_cast<std::uint64_t>(parseNumber<long long>(
                need_value("--seed"), "--seed"));
        else if (!std::strcmp(argv[i], "--out"))
            out_path = need_value("--out");
        else if (!std::strcmp(argv[i], "--no-degradation"))
            degradation = false;
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
