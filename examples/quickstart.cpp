/**
 * @file
 * Quickstart: simulate one day of the HEB prototype.
 *
 * Builds the paper's scale-down rig (six servers, 260 W budget,
 * SC:BA = 3:7 hybrid bank), runs the Terasort workload under the
 * HEB-D scheme, and prints the four headline metrics.
 *
 * Usage: quickstart [workload] [scheme]
 *   workload: PR WC DA WS MS DFS HB TS   (default TS)
 *   scheme:   BaOnly BaFirst SCFirst HEB-F HEB-S HEB-D (default HEB-D)
 */

#include <cstdio>
#include <string>

#include "sim/experiment.h"
#include "util/table_printer.h"

int
main(int argc, char **argv)
{
    std::string workload = argc > 1 ? argv[1] : "TS";
    heb::SchemeKind scheme =
        heb::schemeKindFromName(argc > 2 ? argv[2] : "HEB-D");

    heb::SimConfig config; // the paper's prototype defaults
    heb::HebSchemeConfig scheme_cfg;

    std::printf("HEB quickstart: workload=%s scheme=%s\n",
                workload.c_str(), heb::schemeKindName(scheme));
    std::printf("  servers=%zu budget=%.0fW bank=%.1fWh (SC %.1f / BA "
                "%.1f)\n\n",
                config.numServers, config.budgetW,
                config.totalBufferWh(), config.scEnergyWh,
                config.baEnergyWh);

    heb::PowerAllocationTable pat =
        heb::buildSeededPat(config, scheme_cfg);
    heb::SimResult r =
        heb::runOne(config, workload, scheme, scheme_cfg, &pat);

    heb::TablePrinter table({"metric", "value"});
    table.addRow({"buffer round-trip efficiency",
                  heb::TablePrinter::num(r.energyEfficiency, 3)});
    table.addRow({"effective efficiency (w/ losses)",
                  heb::TablePrinter::num(r.effectiveEfficiency, 3)});
    table.addRow({"server downtime (s)",
                  heb::TablePrinter::num(r.downtimeSeconds, 0)});
    table.addRow({"battery lifetime (years)",
                  heb::TablePrinter::num(r.batteryLifetimeYears, 2)});
    table.addRow({"battery throughput (Ah)",
                  heb::TablePrinter::num(r.batteryDischargeAh, 2)});
    table.addRow({"SC throughput (Ah)",
                  heb::TablePrinter::num(r.scDischargeAh, 2)});
    table.addRow({"energy served (Wh)",
                  heb::TablePrinter::num(r.ledger.servedWh(), 1)});
    table.addRow({"buffer->load (Wh)",
                  heb::TablePrinter::num(r.ledger.bufferToLoadWh(), 1)});
    table.addRow({"unserved (Wh)",
                  heb::TablePrinter::num(r.ledger.unservedWh, 1)});
    table.addRow({"peak utility draw (W)",
                  heb::TablePrinter::num(r.peakUtilityDrawW, 1)});
    table.addRow({"control slots",
                  heb::TablePrinter::num(
                      static_cast<double>(r.completedSlots), 0)});
    table.print();
    return 0;
}
