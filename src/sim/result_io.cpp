#include "sim/result_io.h"

#include "util/csv.h"
#include "util/format.h"
#include "util/logging.h"
#include "util/units.h"

namespace heb {

void
writeResultSeries(const SimResult &result, const std::string &prefix)
{
    // Each file is attempted independently: a ticks file that fails
    // to open (CsvWriter warn()s and goes inert) must not silently
    // swallow the slots file too.
    {
        CsvWriter w(prefix + "_ticks.csv");
        if (w.ok()) {
            w.header(
                {"seconds", "demand_w", "supply_w", "unserved_w"});
            for (std::size_t i = 0; i < result.demandW.size();
                 ++i) {
                w.row({result.demandW.timeAt(i), result.demandW[i],
                       result.supplyW[i], result.unservedW[i]});
            }
        }
    }
    {
        CsvWriter w(prefix + "_slots.csv");
        if (w.ok()) {
            w.header({"seconds", "sc_soc", "ba_soc", "r_lambda"});
            for (std::size_t i = 0; i < result.scSoc.size(); ++i) {
                w.row({result.scSoc.timeAt(i), result.scSoc[i],
                       result.baSoc[i], result.rLambdaPerSlot[i]});
            }
        }
    }
}

void
writeResultMetrics(const std::vector<SimResult> &results,
                   const std::string &path)
{
    CsvWriter w(path);
    if (!w.ok())
        return;
    w.header({"scheme", "workload", "duration_s", "efficiency",
              "effective_efficiency", "downtime_s",
              "battery_life_years", "reu", "buffer_to_load_wh",
              "unserved_wh", "switch_actuations"});
    for (const SimResult &r : results) {
        // Round-trip-exact doubles: std::to_string's fixed six
        // decimals collapsed one-ulp differences and truncated
        // small magnitudes (a 1e-7 Wh shortfall became "0.000000").
        w.rowStrings(
            {r.schemeName, r.workloadName,
             formatRoundTrip(r.durationSeconds),
             formatRoundTrip(r.energyEfficiency),
             formatRoundTrip(r.effectiveEfficiency),
             formatRoundTrip(r.downtimeSeconds),
             formatRoundTrip(r.batteryLifetimeYears),
             formatRoundTrip(r.reu),
             formatRoundTrip(r.ledger.bufferToLoadWh()),
             formatRoundTrip(r.ledger.unservedWh),
             std::to_string(r.switchActuations)});
    }
}

SimConfig
simConfigFromConfig(const Config &config)
{
    SimConfig cfg;
    long servers =
        config.getInt("servers", static_cast<long>(cfg.numServers));
    // Checked before the cast: a negative count would wrap to a huge
    // size_t.
    if (servers < 1)
        fatal("config key 'servers' must be at least 1 (got ", servers,
              ")");
    cfg.numServers = static_cast<std::size_t>(servers);
    cfg.tickSeconds =
        config.getDouble("tick_seconds", cfg.tickSeconds);
    cfg.slotSeconds =
        config.getDouble("slot_seconds", cfg.slotSeconds);
    cfg.durationSeconds =
        config.getDouble("duration_hours",
                         cfg.durationSeconds / kSecondsPerHour) *
        kSecondsPerHour;
    cfg.budgetW = config.getDouble("budget_w", cfg.budgetW);
    cfg.solarPowered = config.getBool("solar", cfg.solarPowered);
    cfg.solarParams.ratedPowerW = config.getDouble(
        "solar_rated_w", cfg.solarParams.ratedPowerW);
    cfg.seed = static_cast<std::uint64_t>(
        config.getInt("seed", static_cast<long>(cfg.seed)));
    cfg.scEnergyWh = config.getDouble("sc_wh", cfg.scEnergyWh);
    cfg.baEnergyWh = config.getDouble("ba_wh", cfg.baEnergyWh);
    cfg.scDod = config.getDouble("sc_dod", cfg.scDod);
    cfg.baDod = config.getDouble("ba_dod", cfg.baDod);
    cfg.batteryAging =
        config.getBool("battery_aging", cfg.batteryAging);
    cfg.dvfsCapping =
        config.getBool("dvfs_capping", cfg.dvfsCapping);
    cfg.sensorNoiseSigma =
        config.getDouble("sensor_noise_sigma", cfg.sensorNoiseSigma);
    cfg.faultInjection =
        config.getBool("fault_injection", cfg.faultInjection);
    cfg.faultSeed = static_cast<std::uint64_t>(config.getInt(
        "fault_seed", static_cast<long>(cfg.faultSeed)));
    cfg.degradationPolicy =
        config.getBool("degradation_policy", cfg.degradationPolicy);
    cfg.fastForward =
        config.getBool("fast_forward", cfg.fastForward);
    cfg.recordSeries =
        config.getBool("record_series", cfg.recordSeries);
    return cfg;
}

std::vector<std::pair<std::string, std::string>>
describeSimConfig(const SimConfig &config)
{
    auto num = [](double v) {
        std::string s = std::to_string(v);
        // Trim trailing zeros for readability; keep one decimal.
        while (s.size() > 1 && s.back() == '0' &&
               s[s.size() - 2] != '.')
            s.pop_back();
        return s;
    };
    std::vector<std::pair<std::string, std::string>> out;
    out.emplace_back("servers", std::to_string(config.numServers));
    out.emplace_back("tick_seconds", num(config.tickSeconds));
    out.emplace_back("slot_seconds", num(config.slotSeconds));
    out.emplace_back("duration_hours",
                     num(config.durationSeconds / kSecondsPerHour));
    out.emplace_back("budget_w", num(config.budgetW));
    out.emplace_back("solar", config.solarPowered ? "true" : "false");
    out.emplace_back("solar_rated_w",
                     num(config.solarParams.ratedPowerW));
    out.emplace_back("seed", std::to_string(config.seed));
    out.emplace_back("sc_wh", num(config.scEnergyWh));
    out.emplace_back("ba_wh", num(config.baEnergyWh));
    out.emplace_back("sc_dod", num(config.scDod));
    out.emplace_back("ba_dod", num(config.baDod));
    out.emplace_back("battery_aging",
                     config.batteryAging ? "true" : "false");
    out.emplace_back("dvfs_capping",
                     config.dvfsCapping ? "true" : "false");
    out.emplace_back("sensor_noise_sigma",
                     num(config.sensorNoiseSigma));
    out.emplace_back("peak_shaving_target_w",
                     num(config.peakShavingTargetW));
    out.emplace_back("fault_injection",
                     config.faultInjection ? "true" : "false");
    out.emplace_back("fault_seed", std::to_string(config.faultSeed));
    out.emplace_back("degradation_policy",
                     config.degradationPolicy ? "true" : "false");
    out.emplace_back("fast_forward",
                     config.fastForward ? "true" : "false");
    out.emplace_back("record_series",
                     config.recordSeries ? "true" : "false");
    return out;
}

} // namespace heb
