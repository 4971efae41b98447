/**
 * @file
 * Reproduces paper Figure 3: round-trip/discharge efficiency of SCs
 * vs lead-acid batteries under one, two and four servers of load,
 * including the recovery-effect gain and the offsetting server
 * on/off energy waste. Part B adds the §3.1 charging claim: deep
 * valleys charge SCs fully while the battery's current ceiling
 * strands energy. Part C runs the DESIGN.md ablation — a
 * Peukert-only battery shows no recovery gain.
 */

#include <cstdio>

#include "dc/cluster.h"
#include "esd/battery.h"
#include "esd/peukert_battery.h"
#include "esd/supercapacitor.h"
#include "util/table_printer.h"
#include "util/units.h"

using namespace heb;

namespace {

/** Wall power of n prototype servers near full load. */
double
serverLoadW(int servers)
{
    return servers * 65.0;
}

/** Characterization battery: a 12 Ah lead-acid string, so even the
 * four-server load stays inside its current rating. */
BatteryParams
rigBattery()
{
    return BatteryParams::leadAcid24V(12.0);
}

/**
 * One-shot discharge: drain from full until the device can no longer
 * hold the load; returns {delivered/usable fraction, delivered Wh}.
 * The fraction is the paper's "one-time discharging efficiency" —
 * the share of stored energy the device releases in a single pull.
 */
template <typename Device>
std::pair<double, double>
oneShot(Device &dev, double load_w)
{
    double usable = dev.usableEnergyWh();
    double wh = 0.0;
    for (int i = 0; i < 3600 * 8; ++i) {
        double got = dev.discharge(load_w, 1.0);
        wh += energyWh(got, 1.0);
        if (got < load_w * 0.95)
            break;
    }
    return {wh / usable, wh};
}

/**
 * Discharge with recovery pauses: after the one-shot failure the
 * battery rests and is drained again (paper: "given additional
 * discharge cycles and enough recovery time").
 */
template <typename Device>
double
withRecovery(Device &dev, double load_w, int extra_rounds,
             double rest_s)
{
    double wh = oneShot(dev, load_w).second;
    for (int r = 0; r < extra_rounds; ++r) {
        dev.rest(rest_s);
        for (int i = 0; i < 3600 * 8; ++i) {
            double got = dev.discharge(load_w, 1.0);
            wh += energyWh(got, 1.0);
            if (got < load_w * 0.95)
                break;
        }
    }
    return wh;
}

} // namespace

int
main()
{
    std::printf("=== Figure 3: energy efficiency characterization "
                "===\n\n");

    TablePrinter table({"load", "SC released(%)",
                        "BA released(%)", "BA w/ recovery(%)",
                        "recovery gain(%)", "on/off waste(Wh)",
                        "recovered net of waste(Wh)"});

    ServerParams sp;
    for (int servers : {1, 2, 4}) {
        double load = serverLoadW(servers);

        Supercapacitor sc(ScParams::maxwellSeriesBank());
        auto [sc_frac, sc_wh] = oneShot(sc, load);
        (void)sc_wh;

        Battery ba(rigBattery());
        auto [ba_frac, ba_wh] = oneShot(ba, load);

        Battery ba2(rigBattery());
        double usable = ba2.usableEnergyWh();
        double ba_rec_wh = withRecovery(ba2, load, 2, 600.0);

        // Each recovery round restarts the servers once the supply
        // resumes; that boot energy offsets the recovered charge
        // (paper: "nearly half of the recovered energy").
        double boot_waste =
            2.0 * servers * energyWh(sp.bootPowerW, sp.bootTimeS);

        double gain = (ba_rec_wh / ba_wh - 1.0) * 100.0;
        table.addRow(
            {std::to_string(servers) + " server(s)",
             TablePrinter::num(100.0 * sc_frac, 1),
             TablePrinter::num(100.0 * ba_frac, 1),
             TablePrinter::num(100.0 * ba_rec_wh / usable, 1),
             TablePrinter::num(gain, 1),
             TablePrinter::num(boot_waste, 1),
             TablePrinter::num(ba_rec_wh - ba_wh - boot_waste, 1)});
    }
    table.print();

    std::printf("\n--- Part B (§3.1): deep-valley charge absorption, "
                "30 min at 300 W surplus ---\n");
    {
        Supercapacitor sc(ScParams::maxwellSeriesBank());
        sc.setSoc(0.0);
        Battery ba(rigBattery());
        ba.setSoc(0.2);
        double sc_in = 0.0, ba_in = 0.0;
        for (int i = 0; i < 1800; ++i) {
            sc_in += energyWh(sc.charge(300.0, 1.0), 1.0);
            ba_in += energyWh(ba.charge(300.0, 1.0), 1.0);
        }
        TablePrinter t2({"device", "absorbed(Wh)", "of capacity(%)"});
        t2.addRow({"supercap", TablePrinter::num(sc_in, 1),
                   TablePrinter::num(100.0 * sc_in / sc.capacityWh(),
                                     1)});
        t2.addRow({"battery", TablePrinter::num(ba_in, 1),
                   TablePrinter::num(100.0 * ba_in / ba.capacityWh(),
                                     1)});
        t2.print();
    }

    std::printf("\n--- Part C (ablation): KiBaM vs Peukert-only — "
                "the recovery effect is the KiBaM well ---\n");
    {
        Battery kibam(rigBattery());
        double k_wh = withRecovery(kibam, 130.0, 2, 600.0);
        Battery kibam1(rigBattery());
        auto [unused, k1_wh] = oneShot(kibam1, 130.0);
        (void)unused;

        PeukertBattery pk(rigBattery());
        double p_wh = withRecovery(pk, 130.0, 2, 600.0);
        PeukertBattery pk1(rigBattery());
        auto [unused2, p1_wh] = oneShot(pk1, 130.0);
        (void)unused2;

        TablePrinter t3({"model", "one-shot Wh", "w/ recovery Wh",
                         "gain(%)"});
        t3.addRow({"kibam", TablePrinter::num(k1_wh, 1),
                   TablePrinter::num(k_wh, 1),
                   TablePrinter::num((k_wh / k1_wh - 1.0) * 100.0,
                                     1)});
        t3.addRow({"peukert-only", TablePrinter::num(p1_wh, 1),
                   TablePrinter::num(p_wh, 1),
                   TablePrinter::num((p_wh / p1_wh - 1.0) * 100.0,
                                     1)});
        t3.print();
    }

    std::printf("\nPaper reference: SC 90-95%% round trip; lead-acid "
                "<80%%; recovery adds 6-24%% but on/off waste eats "
                "~half of it.\n");
    return 0;
}
