#include "sim/result_io.h"

#include <charconv>
#include <concepts>
#include <set>

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

namespace {

/**
 * Every config key, bound to the SimConfig field it sets. Reading a
 * config file and echoing a manifest both walk this one list, so a
 * key that describeSimConfig() writes is a key simConfigFromConfig()
 * reads. @p keys provides field(name, value[, scale]) for each field
 * type in use; a scaled key holds value / scale (hours for seconds).
 * @p Cfg is SimConfig for a reader and const SimConfig for a writer.
 */
template <class Keys, class Cfg>
void
simConfigKeys(Keys &keys, Cfg &cfg)
{
    keys.field("servers", cfg.numServers);
    keys.field("tick_seconds", cfg.tickSeconds);
    keys.field("slot_seconds", cfg.slotSeconds);
    keys.field("duration_hours", cfg.durationSeconds, kSecondsPerHour);
    keys.field("budget_w", cfg.budgetW);
    keys.field("solar", cfg.solarPowered);
    keys.field("solar_rated_w", cfg.solarParams.ratedPowerW);
    keys.field("seed", cfg.seed);
    keys.field("sc_wh", cfg.scEnergyWh);
    keys.field("ba_wh", cfg.baEnergyWh);
    keys.field("sc_dod", cfg.scDod);
    keys.field("ba_dod", cfg.baDod);
    keys.field("battery_aging", cfg.batteryAging);
    keys.field("dvfs_capping", cfg.dvfsCapping);
    keys.field("sensor_noise_sigma", cfg.sensorNoiseSigma);
    keys.field("peak_shaving_target_w", cfg.peakShavingTargetW);
    keys.field("fault_injection", cfg.faultInjection);
    keys.field("fault_seed", cfg.faultSeed);
    keys.field("degradation_policy", cfg.degradationPolicy);
    keys.field("record_series", cfg.recordSeries);
}

/** Reads each listed key that @p config holds; the rest keep their
 *  defaults. */
struct KeyReader
{
    const Config &config;
    std::set<std::string> known;

    void
    field(const char *key, double &value, double scale = 1.0)
    {
        known.insert(key);
        if (config.has(key))
            value = config.getDouble(key) * scale;
    }

    void
    field(const char *key, bool &value)
    {
        known.insert(key);
        if (config.has(key))
            value = config.getBool(key);
    }

    template <std::unsigned_integral T>
    void
    field(const char *key, T &value)
    {
        known.insert(key);
        if (!config.has(key))
            return;
        // Checked before the cast: a negative count would wrap to a
        // huge unsigned value.
        long v = config.getInt(key);
        if (v < 0)
            fatal("config key '", key, "' must be non-negative (got ",
                  v, ")");
        value = static_cast<T>(v);
    }
};

/** Echoes each listed key as a string. Doubles take the shortest
 *  text that reads back to the same bits: std::to_string's six
 *  decimals wrote a 4e-7 noise sigma as 0, so a replayed manifest
 *  ran a different config. */
struct KeyWriter
{
    std::vector<std::pair<std::string, std::string>> out;

    void
    field(const char *key, double value, double scale = 1.0)
    {
        char text[32];
        char *end = std::to_chars(text, text + sizeof text, value / scale).ptr;
        out.emplace_back(key, std::string(text, end));
    }

    void
    field(const char *key, bool value)
    {
        out.emplace_back(key, value ? "true" : "false");
    }

    template <std::unsigned_integral T>
    void
    field(const char *key, T value)
    {
        out.emplace_back(key, std::to_string(value));
    }
};

} // namespace

SimConfig
simConfigFromConfig(const Config &config)
{
    SimConfig cfg;
    KeyReader reader{config, {}};
    simConfigKeys(reader, cfg);
    for (const std::string &key : config.keys())
        if (!reader.known.count(key))
            fatal("unknown config key '", key, "'");
    if (cfg.numServers < 1)
        fatal("config key 'servers' must be at least 1 (got 0)");
    // The rig resized by the one per-server rule, then every key the
    // file sets on top of it, so an explicit budget or bank wins.
    SimConfig scaled;
    scaled.scaleServers(cfg.numServers);
    simConfigKeys(reader, scaled);
    return scaled;
}

std::vector<std::pair<std::string, std::string>>
describeSimConfig(const SimConfig &config)
{
    KeyWriter writer;
    simConfigKeys(writer, config);
    return std::move(writer.out);
}

} // namespace heb
