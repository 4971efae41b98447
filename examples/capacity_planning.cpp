/**
 * @file
 * Example: right-sizing a hybrid buffer (the paper's §7.5 question).
 *
 * Given a target workload mix and budget, sweep the SC:battery split
 * and the total installed energy, score each design on a weighted
 * objective (uptime first, then efficiency, then battery life), and
 * recommend a configuration with its capital cost.
 *
 * Usage: capacity_planning [budget_watts]
 */

#include <cstdio>
#include <vector>

#include "sim/experiment.h"
#include "tco/cost_model.h"
#include "util/config.h"
#include "util/table_printer.h"
#include "workload/workload_profiles.h"

using namespace heb;

namespace {

struct Design
{
    double scWh = 0.0;
    double baWh = 0.0;
    SchemeSummary summary;
    double dollars = 0.0;
    double score = 0.0;
};

double
designCost(double sc_wh, double ba_wh)
{
    const auto &sc = findTechnology("supercap");
    const auto &la = findTechnology("lead-acid");
    return sc_wh / 1000.0 * sc.initialCostPerKwh +
           ba_wh / 1000.0 * la.initialCostPerKwh;
}

double
scoreDesign(const SchemeSummary &s, double duration_s,
            std::size_t workloads)
{
    double uptime_frac =
        1.0 - s.downtimeSeconds /
                  (duration_s * 6.0 * static_cast<double>(workloads));
    return 0.6 * uptime_frac + 0.25 * s.energyEfficiency +
           0.15 * std::min(1.0, s.batteryLifetimeYears / 8.0);
}

} // namespace

int
main(int argc, char **argv)
{
    double budget =
        argc > 1 ? parseNumber<double>(argv[1], "budget_watts") : 260.0;

    std::printf("=== Hybrid buffer capacity planning (budget %.0f W) "
                "===\n\n",
                budget);

    // Representative mix: two small-peak and one large-peak workload
    // keeps the sweep quick while exercising both regimes.
    std::vector<std::string> mix = {"WC", "MS", "TS"};

    SimConfig base;
    base.budgetW = budget;
    base.durationSeconds = 24.0 * 3600.0;

    std::vector<Design> designs;
    for (double total : {64.0, 96.0, 128.0}) {
        for (auto [m, n] : std::vector<std::pair<double, double>>{
                 {2.0, 8.0}, {3.0, 7.0}, {5.0, 5.0}}) {
            SimConfig cfg = base;
            cfg.scEnergyWh = total * m / (m + n);
            cfg.baEnergyWh = total * n / (m + n);
            auto rows = compareSchemes(cfg, mix, {SchemeKind::HebD});
            Design d;
            d.scWh = cfg.scEnergyWh;
            d.baWh = cfg.baEnergyWh;
            d.summary = std::move(rows.front());
            d.dollars = designCost(d.scWh, d.baWh);
            d.score = scoreDesign(d.summary, cfg.durationSeconds,
                                  mix.size());
            designs.push_back(std::move(d));
        }
    }

    TablePrinter table({"SC(Wh)", "BA(Wh)", "eff", "downtime(s)",
                        "bat life(y)", "cost($)", "score"});
    const Design *best = &designs.front();
    for (const Design &d : designs) {
        if (d.score > best->score ||
            (d.score == best->score && d.dollars < best->dollars)) {
            best = &d;
        }
        table.addRow({TablePrinter::num(d.scWh, 1),
                      TablePrinter::num(d.baWh, 1),
                      TablePrinter::num(d.summary.energyEfficiency, 3),
                      TablePrinter::num(d.summary.downtimeSeconds, 0),
                      TablePrinter::num(
                          d.summary.batteryLifetimeYears, 2),
                      TablePrinter::num(d.dollars, 0),
                      TablePrinter::num(d.score, 4)});
    }
    table.print();

    std::printf("\nRecommended design: SC %.1f Wh + battery %.1f Wh "
                "($%.0f) — score %.4f, downtime %.0f s, efficiency "
                "%.3f.\n",
                best->scWh, best->baWh, best->dollars, best->score,
                best->summary.downtimeSeconds,
                best->summary.energyEfficiency);
    return 0;
}
