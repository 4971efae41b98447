/**
 * @file
 * Reproduces paper Figure 6: cluster uptime vs the server split
 * between SCs and batteries under constant power demand.
 *
 * Protocol follows the paper: each branch carries exactly its
 * assigned servers; when one storage device depletes, the other
 * takes over the entire load. Expected shape: an interior optimum —
 * leaning too hard on either branch cuts uptime (heavy-SC loses
 * ~25 % in the paper).
 */

#include <cstdio>

#include "core/profiler.h"
#include "esd/bank_builder.h"
#include "obs/run_outputs.h"
#include "util/table_printer.h"

using namespace heb;

int
main()
{
    std::printf("=== Figure 6: uptime vs SC/battery load split ===\n"
                "(6 servers, constant demand; strict assignment with "
                "takeover on depletion)\n\n");

    obs::RunOutputs outputs;
    outputs.metricsPath = "fig06_metrics.json";
    outputs.manifestPath = "fig06_manifest.json";
    outputs.profile = true;
    outputs.manifest.tool = "fig06_runtime";
    outputs.begin(0, false);
    outputs.startClock();

    ProfilerConfig cfg;
    cfg.ratioSteps = 7; // 0..6 servers on the SC branch
    BufferProfiler profiler(
        []() { return makeScBank(28.8); },
        []() { return makeBatteryBank(67.2); }, cfg);

    for (double mismatch : {110.0, 150.0, 190.0}) {
        RuntimeProfile prof = profiler.profileScenario(1.0, 1.0,
                                                       mismatch);
        std::printf("mismatch %.0f W:\n", mismatch);
        TablePrinter table({"servers on SC", "r", "uptime(s)",
                            "vs best(%)"});
        for (std::size_t i = 0; i < prof.ratios.size(); ++i) {
            table.addRow(
                {std::to_string(i),
                 TablePrinter::num(prof.ratios[i], 2),
                 TablePrinter::num(prof.runtimeSeconds[i], 0),
                 TablePrinter::num(100.0 * prof.runtimeSeconds[i] /
                                       prof.bestRuntime(),
                                   1)});
        }
        table.print();
        std::printf("best split: %zu servers on SC (r=%.2f), uptime "
                    "%.0f s; all-SC achieves %.0f%% of best\n\n",
                    prof.bestIndex, prof.bestRatio(),
                    prof.bestRuntime(),
                    100.0 * prof.runtimeSeconds.back() /
                        prof.bestRuntime());
    }

    outputs.stopClock();
    outputs.writeTelemetry();
    outputs.writeProfileAndManifest();

    std::printf("\nProvenance written to fig06_manifest.json.\n");
    std::printf("Paper shape: an interior split maximizes uptime; "
                "assigning heavy load on SCs cuts uptime ~25%%.\n");
    return 0;
}
