/**
 * @file
 * Reproduces paper Figure 15: (a) prototype cost breakdown, (b) ROI
 * of hybrid buffers vs under-provisioning CAP-EX, and (c) the
 * 8-year peak-shaving revenue race with its break-even years.
 *
 * Part (c) additionally demonstrates the cross-module pipeline: the
 * scheme effectiveness inputs can be derived from a live Fig. 12
 * simulation instead of the paper defaults (pass --sim).
 */

#include <cstdio>
#include <cstring>

#include "sim/experiment.h"
#include "tco/cost_model.h"
#include "tco/peak_shaving.h"
#include "tco/roi.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "workload/workload_profiles.h"

using namespace heb;

namespace {

void
partA()
{
    std::printf("--- Fig. 15(a): prototype cost breakdown ---\n");
    CostBreakdown b = prototypeCostBreakdown();
    TablePrinter table({"component", "$", "share(%)"});
    for (const auto &item : b.items) {
        table.addRow({item.component,
                      TablePrinter::num(item.dollars, 0),
                      TablePrinter::num(
                          100.0 * b.fraction(item.component), 1)});
    }
    table.addRow({"TOTAL", TablePrinter::num(b.total(), 0), "100.0"});
    table.print();
    std::printf("HEB node = %.1f%% of the six-server cost ($%.0f); "
                "paper: <16%%, ESDs ~55%%.\n\n",
                100.0 * b.total() / kSixServerCostDollars,
                kSixServerCostDollars);
}

void
partB()
{
    std::printf("--- Fig. 15(b): ROI vs infrastructure cost and "
                "peak duration ---\n");
    RoiModel roi;
    TablePrinter table({"C_cap($/W)", "e=0.25h", "e=0.5h", "e=1h",
                        "e=2h"});
    for (double c_cap : {2.0, 5.0, 10.0, 15.0, 20.0}) {
        table.addRow({TablePrinter::num(c_cap, 0),
                      TablePrinter::num(roi.roi(c_cap, 0.25), 2),
                      TablePrinter::num(roi.roi(c_cap, 0.5), 2),
                      TablePrinter::num(roi.roi(c_cap, 1.0), 2),
                      TablePrinter::num(roi.roi(c_cap, 2.0), 2)});
    }
    table.print();
    std::printf("Paper shape: positive ROI across most operating "
                "regions; long peaks + cheap infrastructure turn it "
                "negative.\n\n");
}

std::vector<SchemeEconomics>
economicsFromSimulation()
{
    std::printf("(deriving scheme economics from a live Fig. 12 "
                "simulation...)\n");
    SimConfig cfg;
    auto rows = compareSchemes(cfg, allWorkloadNames(),
                               {SchemeKind::BaOnly, SchemeKind::BaFirst,
                                SchemeKind::ScFirst, SchemeKind::HebD});
    const SchemeSummary &base = rows[0];
    std::vector<SchemeEconomics> out;
    for (const SchemeSummary &row : rows) {
        SchemeEconomics e;
        e.name = row.scheme == "HEB-D" ? "HEB" : row.scheme;
        e.hybrid = row.scheme != "BaOnly";
        // Effectiveness: the BaOnly anchor (0.51) scaled by relative
        // efficiency and availability gains measured in simulation.
        double eff_gain = row.energyEfficiency / base.energyEfficiency;
        double avail_gain =
            base.downtimeSeconds > 0.0
                ? 1.0 + 0.5 * (1.0 - row.downtimeSeconds /
                                         base.downtimeSeconds)
                : 1.0;
        e.shavingEffectiveness =
            std::min(1.0, 0.51 * eff_gain * avail_gain);
        e.batteryLifetimeYears =
            std::max(1.0, 4.0 * row.batteryLifetimeYears /
                              base.batteryLifetimeYears);
        out.push_back(e);
    }
    return out;
}

void
partC(bool from_sim)
{
    std::printf("--- Fig. 15(c): 8-year peak shaving economics "
                "(100 kW DC, 20 kWh buffer, 12 $/kW tariff) ---\n");
    PeakShavingModel model;
    auto schemes = from_sim ? economicsFromSimulation()
                            : PeakShavingModel::paperDefaults();
    auto results = model.evaluateAll(schemes);

    TablePrinter table({"scheme", "capex($)", "revenue($/yr)",
                        "break-even(yr)", "net @ 8yr($)",
                        "vs BaOnly"});
    for (const auto &r : results) {
        double ratio =
            PeakShavingModel::revenueRatio(r, results.front());
        table.addRow(
            {r.scheme, TablePrinter::num(r.capex, 0),
             TablePrinter::num(r.annualRevenue, 0),
             r.breakEvenYears > 0.0
                 ? TablePrinter::num(r.breakEvenYears, 1)
                 : std::string("never"),
             TablePrinter::num(r.netAtHorizon, 0),
             TablePrinter::num(ratio, 2) + "x"});
    }
    table.print();

    std::printf("\nCumulative net profit by year ($):\n");
    TablePrinter curve({"scheme", "y1", "y2", "y3", "y4", "y5", "y6",
                        "y7", "y8"});
    for (const auto &r : results) {
        std::vector<std::string> cells = {r.scheme};
        for (double v : r.cumulativeNetByYear)
            cells.push_back(TablePrinter::num(v, 0));
        curve.addRow(cells);
    }
    curve.print();

    std::printf("\nPaper reference: break-even BaOnly 4.2 / BaFirst "
                "6.3 / SCFirst 4.9 / HEB 3.7 years; HEB earns "
                ">1.9x BaOnly. Note the documented SC-price "
                "substitution (DESIGN.md / EXPERIMENTS.md).\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool from_sim = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--sim") != 0)
            fatal("unknown argument '", argv[i], "' (supported: --sim)");
        from_sim = true;
    }
    std::printf("=== Figure 15: TCO analysis ===\n\n");
    partA();
    partB();
    partC(from_sim);
    return 0;
}
