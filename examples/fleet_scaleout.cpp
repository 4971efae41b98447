/**
 * @file
 * Example: scaling HEB out across racks (paper Fig. 8c).
 *
 * Three racks with different workload mixes share one facility feed.
 * The example contrasts static per-rack budget slicing against
 * demand-proportional arbitration — the facility-level coordination
 * a distributed, reconfigurable buffer architecture enables.
 *
 * Usage: fleet_scaleout [facility_budget_watts]
 */

#include <cstdio>

#include "core/schemes.h"
#include "sim/fleet.h"
#include "util/config.h"
#include "util/table_printer.h"
#include "workload/workload_profiles.h"

using namespace heb;

namespace {

void
runPolicy(BudgetPolicy policy, double budget)
{
    SimConfig cfg;
    cfg.durationSeconds = 24.0 * 3600.0;

    std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
    std::vector<std::unique_ptr<ManagementScheme>> schemes;
    std::vector<RackSpec> specs;
    const char *mix[] = {"TS", "WS", "WC"};
    for (int i = 0; i < 3; ++i) {
        workloads.push_back(makeWorkload(mix[i]));
        schemes.push_back(makeScheme(SchemeKind::HebD));
        specs.push_back(RackSpec{"rack" + std::to_string(i),
                                 workloads.back().get(),
                                 schemes.back().get()});
    }

    FleetSimulator fleet(cfg, budget, FleetOptions{policy});
    FleetResult r = fleet.run(specs);

    std::printf("--- %s arbitration ---\n",
                budgetPolicyName(policy));
    TablePrinter table({"rack", "workload", "downtime(s)", "eff",
                        "unserved(Wh)", "buffer->load(Wh)"});
    for (const SimResult &rr : r.racks) {
        table.addRow({rr.workloadName == "TS"   ? "rack0"
                      : rr.workloadName == "WS" ? "rack1"
                                                : "rack2",
                      rr.workloadName,
                      TablePrinter::num(rr.downtimeSeconds, 0),
                      TablePrinter::num(rr.energyEfficiency, 3),
                      TablePrinter::num(rr.ledger.unservedWh, 2),
                      TablePrinter::num(
                          rr.ledger.bufferToLoadWh(), 1)});
    }
    table.print();
    std::printf("fleet: downtime %.0f s, unserved %.2f Wh, facility "
                "peak %.1f W, mean eff %.3f (unweighted %.3f)\n\n",
                r.totalDowntimeSeconds, r.totalUnservedWh,
                r.facilityPeakDrawW, r.meanEfficiency,
                r.meanEfficiencyUnweighted);
}

} // namespace

int
main(int argc, char **argv)
{
    double budget =
        argc > 1 ? parseNumber<double>(argv[1], "facility_budget_watts")
                 : 3.0 * 245.0;
    std::printf("=== Three-rack HEB fleet on a %.0f W facility feed "
                "===\n\n",
                budget);
    runPolicy(BudgetPolicy::Static, budget);
    runPolicy(BudgetPolicy::Proportional, budget);
    std::printf("Reading: demand-proportional arbitration moves the "
                "quiet racks' headroom to the rack fighting a large "
                "peak.\n");
    return 0;
}
