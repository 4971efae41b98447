#include "esd/bank_builder.h"

#include <cmath>

#include "esd/battery.h"
#include "esd/supercapacitor.h"
#include "util/logging.h"

namespace heb {

std::unique_ptr<EsdPool>
makeScBank(double energy_wh, double dod, std::size_t modules)
{
    if (energy_wh <= 0.0)
        fatal("makeScBank: energy must be positive");
    if (dod <= 0.0 || dod > 1.0)
        fatal("makeScBank: dod must be in (0,1]");
    if (modules == 0)
        fatal("makeScBank: need at least one module");

    auto pool = std::make_unique<EsdPool>("sc-bank");
    double per_module = energy_wh / static_cast<double>(modules);
    for (std::size_t i = 0; i < modules; ++i) {
        ScParams p = ScParams::scaledToEnergyWh(per_module);
        p.name = "sc-" + std::to_string(i);
        // Raise the usable floor so that the usable window is dod of
        // the full window: E ~ vMax^2 - vMin^2.
        double full_low2 = p.vMin * p.vMin;
        double span2 = p.vMax * p.vMax - full_low2;
        p.vMin = std::sqrt(p.vMax * p.vMax - dod * span2);
        pool->add(std::make_unique<Supercapacitor>(p));
    }
    return pool;
}

std::unique_ptr<EsdPool>
makeBatteryBank(double energy_wh, double dod, std::size_t strings,
                bool aging)
{
    if (energy_wh <= 0.0)
        fatal("makeBatteryBank: energy must be positive");
    if (dod <= 0.0 || dod > 1.0)
        fatal("makeBatteryBank: dod must be in (0,1]");
    if (strings == 0)
        fatal("makeBatteryBank: need at least one string");

    auto pool = std::make_unique<EsdPool>("battery-bank");
    double per_string_wh = energy_wh / static_cast<double>(strings);
    for (std::size_t i = 0; i < strings; ++i) {
        BatteryParams p =
            BatteryParams::leadAcid24V(per_string_wh / 24.0);
        p.name = "battery-" + std::to_string(i);
        p.dodLimit = dod;
        p.agingEnabled = aging;
        pool->add(std::make_unique<Battery>(p));
    }
    return pool;
}

} // namespace heb
