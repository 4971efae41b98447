/**
 * @file
 * Reproduces paper Figure 13: metric sensitivity to the SC:battery
 * capacity ratio at constant total capacity (all metrics normalized
 * to the 3:7 prototype ratio, HEB-D scheme, all eight workloads).
 *
 * Expected shape: more SC helps every metric; battery lifetime gains
 * the most; efficiency and downtime saturate.
 */

#include <cstdio>

#include "sim/experiment.h"
#include "util/cli.h"
#include "util/table_printer.h"
#include "workload/workload_profiles.h"

using namespace heb;

int
main(int argc, char **argv)
{
    parseJobsOnly(argc, argv);
    std::printf("=== Figure 13: SC:BA capacity ratio sweep "
                "(constant total, HEB-D, normalized to 3:7) ===\n\n");

    SimConfig base;
    std::vector<std::pair<double, double>> ratios = {
        {1.0, 9.0}, {3.0, 7.0}, {5.0, 5.0}, {7.0, 3.0}};
    auto points = ratioSweep(base, ratios);

    // Locate the 3:7 baseline.
    const RatioPoint *baseline = nullptr;
    for (const auto &p : points) {
        if (p.scParts == 3.0)
            baseline = &p;
    }

    TablePrinter table({"SC:BA", "eff", "downtime(s)", "bat life(y)",
                        "eff norm", "downtime norm", "life norm"});
    for (const auto &p : points) {
        const SchemeSummary &s = p.summary;
        const SchemeSummary &b = baseline->summary;
        double dt_norm = b.downtimeSeconds > 0.0
                             ? s.downtimeSeconds / b.downtimeSeconds
                             : (s.downtimeSeconds > 0.0 ? 99.0 : 1.0);
        table.addRow(
            {TablePrinter::num(p.scParts, 0) + ":" +
                 TablePrinter::num(p.baParts, 0),
             TablePrinter::num(s.energyEfficiency, 3),
             TablePrinter::num(s.downtimeSeconds, 0),
             TablePrinter::num(s.batteryLifetimeYears, 2),
             TablePrinter::num(
                 s.energyEfficiency / b.energyEfficiency, 3),
             TablePrinter::num(dt_norm, 3),
             TablePrinter::num(s.batteryLifetimeYears /
                                   b.batteryLifetimeYears,
                               2)});
    }
    table.print();

    std::printf("\nPaper shape: higher SC share improves all "
                "metrics; battery lifetime improves most; efficiency "
                "and downtime improvements flatten out.\n");
    return 0;
}
