/**
 * @file
 * Example: an under-provisioned datacenter riding a Google-style
 * bursty trace (the paper's §2.1 scenario).
 *
 * The cluster subscribes only a fraction of its nameplate power; the
 * hybrid buffer absorbs the overshoot. The example compares BaOnly
 * against HEB-D at several provisioning levels and prints, per
 * level, the downtime and efficiency each scheme achieves plus the
 * utility peak actually drawn (the peak-shaving effect the TCO model
 * prices).
 *
 * Usage: underprovisioned_dc [provision_fraction...]
 *        (defaults: 0.75 0.65 0.55)
 */

#include <cstdio>
#include <vector>

#include "sim/experiment.h"
#include "util/config.h"
#include "util/table_printer.h"
#include "workload/google_trace.h"
#include "workload/trace_workload.h"

using namespace heb;

int
main(int argc, char **argv)
{
    std::vector<double> levels;
    for (int i = 1; i < argc; ++i)
        levels.push_back(parseNumber<double>(argv[i], "provision_fraction"));
    if (levels.empty())
        levels = {0.75, 0.65, 0.55};

    std::printf("=== Under-provisioned datacenter on a bursty "
                "cluster trace ===\n\n");

    // Two days of normalized demand driving all six servers.
    TimeSeries trace = generateGoogleTrace(2.0, 10.0, 77);
    TraceWorkload workload("google-trace", trace, PeakClass::Large,
                           45.0);

    SimConfig base; // six prototype servers
    double nameplate = 420.0;

    TablePrinter table({"provision", "budget(W)", "scheme",
                        "downtime(s)", "eff", "peak draw(W)",
                        "buffer->load(Wh)", "unserved(Wh)"});

    for (double level : levels) {
        for (SchemeKind kind :
             {SchemeKind::BaOnly, SchemeKind::HebD}) {
            SimConfig cfg = base;
            cfg.budgetW = nameplate * level;

            HebSchemeConfig scheme_cfg;
            PowerAllocationTable pat =
                buildSeededPat(cfg, scheme_cfg);
            auto scheme = makeScheme(kind, scheme_cfg, &pat);
            Simulator sim(cfg);
            SimResult r = sim.run(workload, *scheme);

            table.addRow(
                {TablePrinter::num(level * 100.0, 0) + "%",
                 TablePrinter::num(cfg.budgetW, 0), r.schemeName,
                 TablePrinter::num(r.downtimeSeconds, 0),
                 TablePrinter::num(r.energyEfficiency, 3),
                 TablePrinter::num(r.peakUtilityDrawW, 1),
                 TablePrinter::num(r.ledger.bufferToLoadWh(), 1),
                 TablePrinter::num(r.ledger.unservedWh, 2)});
        }
    }
    table.print();

    std::printf("\nReading: deeper under-provisioning shifts more "
                "energy through the buffers; the hybrid scheme holds "
                "uptime where the homogeneous battery sheds "
                "servers.\n");
    return 0;
}
