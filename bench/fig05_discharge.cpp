/**
 * @file
 * Reproduces paper Figure 5: discharge voltage trajectories of the
 * battery vs the SC bank under one, two and four servers.
 *
 * Expected shape: the SC voltage declines linearly regardless of
 * load; the battery holds a plateau but sags sharply under heavy
 * load (and collapses near depletion), which is why batteries must
 * be shielded from large peak mismatches.
 */

#include <cstdio>

#include "esd/battery.h"
#include "esd/supercapacitor.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/run_outputs.h"
#include "util/csv.h"
#include "util/table_printer.h"

using namespace heb;

int
main()
{
    std::printf("=== Figure 5: discharge voltage curves ===\n\n");

    obs::RunOutputs outputs;
    outputs.metricsPath = "fig05_metrics.json";
    outputs.manifestPath = "fig05_manifest.json";
    outputs.profile = true;
    outputs.manifest.tool = "fig05_discharge";
    outputs.begin(0, false);
    outputs.startClock();
    auto &ba_v_hist = obs::MetricsRegistry::global().histogram(
        "bench.fig05.battery_v", {0.5, 2.0, 8});
    auto &sc_v_hist = obs::MetricsRegistry::global().histogram(
        "bench.fig05.sc_v", {0.5, 2.0, 8});

    CsvWriter csv("fig05_discharge.csv");
    csv.header({"seconds", "load_servers", "battery_v", "sc_v"});

    TablePrinter table({"load", "BA step drop(V)", "BA V t=0",
                        "BA V mid", "BA V end", "BA time(s)",
                        "SC V t=0", "SC V mid", "SC V end",
                        "SC linearity err(%)"});

    // Sample each device's own trajectory until *it* fails, so the
    // mid/end points describe that device's discharge, not a shared
    // clock.
    auto run_curve = [](auto &dev, double load) {
        HEB_PROF_SCOPE("bench.fig05.curve");
        std::vector<double> v;
        for (int t = 0; t < 3600 * 6; ++t) {
            double got = dev.discharge(load, 1.0);
            v.push_back(dev.terminalVoltage(load));
            if (got < load * 0.9)
                break;
        }
        return v;
    };

    for (int servers : {1, 2, 4}) {
        double load = servers * 65.0;
        Battery ba(BatteryParams::leadAcid24V(12.0));
        Supercapacitor sc(ScParams::maxwellSeriesBank());

        // Instantaneous sag when the load steps on (vs open circuit).
        double step_drop =
            ba.terminalVoltage(0.0) - ba.terminalVoltage(load);

        std::vector<double> ba_v = run_curve(ba, load);
        std::vector<double> sc_v = run_curve(sc, load);
        for (double v : ba_v)
            ba_v_hist.record(v);
        for (double v : sc_v)
            sc_v_hist.record(v);

        std::size_t pts = std::max(ba_v.size(), sc_v.size());
        for (std::size_t t = 0; t < pts; t += 30) {
            csv.row({static_cast<double>(t),
                     static_cast<double>(servers),
                     t < ba_v.size() ? ba_v[t] : 0.0,
                     t < sc_v.size() ? sc_v[t] : 0.0});
        }

        // SC linearity over its own discharge: midpoint voltage vs
        // the straight line between its endpoints.
        double lin_mid = (sc_v.front() + sc_v.back()) / 2.0;
        double lin_err = 100.0 *
                         std::abs(sc_v[sc_v.size() / 2] - lin_mid) /
                         sc_v.front();

        table.addRow({std::to_string(servers) + " server(s)",
                      TablePrinter::num(step_drop, 2),
                      TablePrinter::num(ba_v.front(), 2),
                      TablePrinter::num(ba_v[ba_v.size() / 2], 2),
                      TablePrinter::num(ba_v.back(), 2),
                      TablePrinter::num(
                          static_cast<double>(ba_v.size()), 0),
                      TablePrinter::num(sc_v.front(), 2),
                      TablePrinter::num(sc_v[sc_v.size() / 2], 2),
                      TablePrinter::num(sc_v.back(), 2),
                      TablePrinter::num(lin_err, 2)});
    }
    table.print();

    outputs.stopClock();
    outputs.writeTelemetry();
    outputs.writeProfileAndManifest();

    std::printf("\nFull curves written to fig05_discharge.csv; "
                "provenance to fig05_manifest.json.\n");
    std::printf("Paper shape: SC voltage declines ~linearly at every "
                "load; battery voltage drops sharply as load "
                "grows.\n");
    return 0;
}
