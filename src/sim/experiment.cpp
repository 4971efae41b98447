#include "sim/experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/profiler.h"
#include "esd/bank_builder.h"
#include "obs/json.h"
#include "sim/fleet.h"
#include "sim/pat_cache.h"
#include "sim/plan_cache.h"
#include "util/format.h"
#include "util/atomic_file.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/workload_profiles.h"

namespace heb {

namespace {

/** True for the scheme kinds that start from a profiled PAT. */
bool
wantsSeededPat(SchemeKind kind)
{
    return kind == SchemeKind::HebF || kind == SchemeKind::HebS ||
           kind == SchemeKind::HebD;
}

} // namespace

PowerAllocationTable
buildSeededPat(const SimConfig &config,
               const HebSchemeConfig &scheme_cfg)
{
    PowerAllocationTable table(scheme_cfg.patGrid, scheme_cfg.deltaR);

    // The table races its cells after this returns: capture the bank
    // layout by value.
    BufferProfiler profiler(
        [wh = config.scEnergyWh, dod = config.scDod]() {
            return makeScBank(wh, dod);
        },
        [wh = config.baEnergyWh, dod = config.baDod]() {
            return makeBatteryBank(wh, dod);
        });

    // A modest pilot grid, like the paper's limited profiling run.
    std::vector<double> socs = {0.4, 0.7, 1.0};
    std::vector<double> powers;
    double step = std::max(scheme_cfg.patGrid.pmStepW, 20.0);
    for (double w = scheme_cfg.smallPeakThresholdW; w <= 200.0;
         w += step) {
        powers.push_back(w);
    }
    profiler.seedTable(table, socs, socs, powers);
    return table;
}

SimResult
runOne(const SimConfig &config, const std::string &workload_name,
       SchemeKind kind, const HebSchemeConfig &scheme_cfg,
       const PowerAllocationTable *seeded_pat)
{
    // Sweep grids rerun the same (profile, seed) workload across
    // many scheme/config cells; the plan is immutable, so all cells
    // share one instance instead of rebuilding it.
    auto workload =
        SharedPlanCache::global().workload(workload_name, config.seed);
    auto scheme = makeScheme(kind, scheme_cfg, seeded_pat);
    Simulator sim(config);
    return sim.run(*workload, *scheme);
}

std::vector<SchemeSummary>
compareSchemes(const SimConfig &config,
               const std::vector<std::string> &workloads,
               const std::vector<SchemeKind> &schemes,
               const HebSchemeConfig &scheme_cfg)
{
    if (workloads.empty() || schemes.empty())
        fatal("compareSchemes: need workloads and schemes");

    // One shared seed, fetched from the cache (and only when a HEB
    // variant is in the set); each HEB instance copies it.
    std::shared_ptr<const PowerAllocationTable> seeded;
    if (std::any_of(schemes.begin(), schemes.end(), wantsSeededPat))
        seeded = SeededPatCache::global().get(config, scheme_cfg);

    // Every (scheme, workload) cell is independent: flatten the grid
    // into one task set so the pool never idles at a per-scheme
    // barrier, and let map() ordering keep results deterministic.
    struct Cell
    {
        std::size_t scheme_i = 0;
        std::size_t workload_i = 0;
    };
    std::vector<Cell> cells;
    cells.reserve(schemes.size() * workloads.size());
    for (std::size_t si = 0; si < schemes.size(); ++si) {
        for (std::size_t wi = 0; wi < workloads.size(); ++wi)
            cells.push_back({si, wi});
    }

    std::vector<SimResult> results = parallelMap(
        cells, [&](const Cell &cell) {
            return runOne(config, workloads[cell.workload_i],
                          schemes[cell.scheme_i], scheme_cfg,
                          seeded.get());
        });

    std::vector<SchemeSummary> rows;
    rows.reserve(schemes.size());
    for (std::size_t si = 0; si < schemes.size(); ++si) {
        SchemeSummary row;
        row.scheme = schemeKindName(schemes[si]);
        double small_acc = 0.0, large_acc = 0.0;
        std::size_t small_n = 0, large_n = 0;
        for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
            SimResult &r = results[si * workloads.size() + wi];
            row.energyEfficiency += r.energyEfficiency;
            row.downtimeSeconds += r.downtimeSeconds;
            row.batteryLifetimeYears += r.batteryLifetimeYears;
            row.reu += r.reu;
            if (r.workloadPeakClass == PeakClass::Small) {
                small_acc += r.energyEfficiency;
                ++small_n;
            } else {
                large_acc += r.energyEfficiency;
                ++large_n;
            }
            row.perWorkload.push_back(std::move(r));
        }
        auto n = static_cast<double>(workloads.size());
        row.energyEfficiency /= n;
        row.batteryLifetimeYears /= n;
        row.reu /= n;
        row.energyEfficiencySmall =
            small_n ? small_acc / static_cast<double>(small_n) : 0.0;
        row.energyEfficiencyLarge =
            large_n ? large_acc / static_cast<double>(large_n) : 0.0;
        rows.push_back(std::move(row));
    }
    return rows;
}

std::vector<RatioPoint>
ratioSweep(const SimConfig &base,
           const std::vector<std::pair<double, double>> &ratios,
           const HebSchemeConfig &scheme_cfg)
{
    // Points run concurrently; the nested compareSchemes calls share
    // the same pool (the point task helps drain its own cells), so
    // total parallelism stays bounded by the pool width.
    return parallelMap(
        ratios, [&](const std::pair<double, double> &ratio) {
            SimConfig cfg = base;
            cfg.setCapacityRatio(ratio.first, ratio.second);
            auto rows = compareSchemes(cfg, allWorkloadNames(),
                                       {SchemeKind::HebD}, scheme_cfg);
            RatioPoint p;
            p.scParts = ratio.first;
            p.baParts = ratio.second;
            p.summary = std::move(rows.front());
            return p;
        });
}

namespace {

/** Nearest-rank percentile of an already-sorted sample. */
double
percentileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    double rank = q * static_cast<double>(sorted.size());
    auto idx = static_cast<std::size_t>(std::max(0.0, std::ceil(rank) - 1.0));
    return sorted[std::min(idx, sorted.size() - 1)];
}

/** Fault seed of scenario @p k: a SplitMix64 child of the base seed. */
std::uint64_t
scenarioFaultSeed(std::uint64_t base_seed, std::size_t k)
{
    SplitMix64 child =
        SplitMix64(base_seed).fork(static_cast<std::uint64_t>(k) + 1);
    return child.next();
}

} // namespace

std::vector<AvailabilitySummary>
availabilitySweep(const SimConfig &base, const std::string &workload,
                  const std::vector<SchemeKind> &schemes,
                  std::size_t scenarios,
                  const HebSchemeConfig &scheme_cfg)
{
    if (schemes.empty() || scenarios == 0)
        fatal("availabilitySweep: need schemes and scenarios");

    std::shared_ptr<const PowerAllocationTable> seeded;
    if (std::any_of(schemes.begin(), schemes.end(), wantsSeededPat))
        seeded = SeededPatCache::global().get(base, scheme_cfg);

    // Flatten the scheme x scenario grid into one task set; map()
    // keeps input order, so aggregation below is thread-count
    // independent.
    struct Cell
    {
        std::size_t scheme_i = 0;
        std::size_t scenario = 0;
    };
    std::vector<Cell> cells;
    cells.reserve(schemes.size() * scenarios);
    for (std::size_t si = 0; si < schemes.size(); ++si) {
        for (std::size_t k = 0; k < scenarios; ++k)
            cells.push_back({si, k});
    }

    std::vector<SimResult> results = parallelMap(
        cells, [&](const Cell &cell) {
            SimConfig cfg = base;
            cfg.faultInjection = true;
            cfg.faultSeed =
                scenarioFaultSeed(base.faultSeed, cell.scenario);
            return runOne(cfg, workload, schemes[cell.scheme_i],
                          scheme_cfg, seeded.get());
        });

    // Mirror the simulator's round-up: a trailing partial interval
    // is simulated as one full tick, so it counts toward the
    // availability denominator too.
    double total_ticks =
        base.tickSeconds > 0.0
            ? std::ceil(base.durationSeconds / base.tickSeconds)
            : 0.0;

    std::vector<AvailabilitySummary> rows;
    rows.reserve(schemes.size());
    for (std::size_t si = 0; si < schemes.size(); ++si) {
        AvailabilitySummary row;
        row.scheme = schemeKindName(schemes[si]);
        row.scenarios = scenarios;
        for (std::size_t k = 0; k < scenarios; ++k) {
            const SimResult &r = results[si * scenarios + k];
            row.ensWhPerScenario.push_back(r.energyNotServedWh);
            row.meanEnsWh += r.energyNotServedWh;
            row.maxEnsWh =
                std::max(row.maxEnsWh, r.energyNotServedWh);
            row.meanDowntimeSeconds += r.downtimeSeconds;
            row.meanShortfallTicks +=
                static_cast<double>(r.shortfallTicks);
            row.meanCrashEvents +=
                static_cast<double>(r.serverCrashEvents);
            row.meanGracefulSheds +=
                static_cast<double>(r.gracefulShedEvents);
            row.meanFaultsApplied +=
                static_cast<double>(r.faultEventsApplied);
        }
        auto n = static_cast<double>(scenarios);
        row.meanEnsWh /= n;
        row.meanDowntimeSeconds /= n;
        row.meanShortfallTicks /= n;
        row.meanCrashEvents /= n;
        row.meanGracefulSheds /= n;
        row.meanFaultsApplied /= n;
        row.availability =
            total_ticks > 0.0
                ? std::clamp(1.0 - row.meanShortfallTicks / total_ticks,
                             0.0, 1.0)
                : 0.0;

        std::vector<double> sorted = row.ensWhPerScenario;
        std::sort(sorted.begin(), sorted.end());
        row.p50EnsWh = percentileSorted(sorted, 0.50);
        row.p95EnsWh = percentileSorted(sorted, 0.95);
        rows.push_back(std::move(row));
    }
    return rows;
}

namespace {

/**
 * Round-trip-exact number emission for the equivalence witness:
 * %.17g prints every distinct double distinctly (the %.10g of the
 * summary artifacts can collapse one-ulp differences, which is
 * precisely what simResultToJson exists to detect). Non-finite
 * values become null, matching obs::appendJsonNumber.
 */
void
appendExactNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    appendRoundTrip(out, v);
}

/** Emit `"key": [s0, s1, ...]` for a full TimeSeries, %.17g. */
void
appendSeries(std::string &out, const char *key,
             const TimeSeries &series)
{
    out += ",\n  \"";
    out += key;
    out += "\": {\"step_s\": ";
    appendExactNumber(out, series.stepSeconds());
    out += ", \"samples\": [";
    const std::vector<double> &samples = series.samples();
    for (std::size_t i = 0; i < samples.size(); ++i) {
        if (i)
            out += ",";
        appendExactNumber(out, samples[i]);
    }
    out += "]}";
}

/** Emit `"key": <n>` for integral counters (exact — no rounding). */
void
appendCount(std::string &out, const char *key, unsigned long v)
{
    out += ",\n  \"";
    out += key;
    out += "\": ";
    out += std::to_string(v);
}

/** Emit `"key": <v>` with the exact formatter. */
void
appendField(std::string &out, const char *key, double v)
{
    out += ",\n  \"";
    out += key;
    out += "\": ";
    appendExactNumber(out, v);
}

} // namespace

std::string
simResultToJson(const SimResult &result)
{
    std::string out;
    out += "{\n  \"scheme\": ";
    obs::appendJsonString(out, result.schemeName);
    out += ",\n  \"workload\": ";
    obs::appendJsonString(out, result.workloadName);
    out += ",\n  \"peak_class\": ";
    obs::appendJsonString(
        out, peakClassName(result.workloadPeakClass));
    appendField(out, "duration_seconds", result.durationSeconds);

    appendField(out, "energy_efficiency", result.energyEfficiency);
    appendField(out, "effective_efficiency",
                result.effectiveEfficiency);
    appendField(out, "downtime_seconds", result.downtimeSeconds);
    appendField(out, "battery_lifetime_years",
                result.batteryLifetimeYears);
    appendField(out, "reu", result.reu);

    appendField(out, "energy_not_served_wh",
                result.energyNotServedWh);
    appendCount(out, "shortfall_ticks", result.shortfallTicks);
    appendCount(out, "server_crash_events",
                result.serverCrashEvents);
    appendCount(out, "graceful_shed_events",
                result.gracefulShedEvents);
    appendCount(out, "fault_events_applied",
                result.faultEventsApplied);
    appendCount(out, "degradation_actions",
                result.degradationActions);
    out += ",\n  \"fault_log\": [";
    for (std::size_t i = 0; i < result.faultLog.size(); ++i) {
        if (i)
            out += ", ";
        obs::appendJsonString(out, result.faultLog[i]);
    }
    out += "]";

    appendField(out, "source_to_load_wh",
                result.ledger.sourceToLoadWh);
    appendField(out, "source_to_sc_wh", result.ledger.sourceToScWh);
    appendField(out, "source_to_battery_wh",
                result.ledger.sourceToBatteryWh);
    appendField(out, "sc_to_load_wh", result.ledger.scToLoadWh);
    appendField(out, "battery_to_load_wh",
                result.ledger.batteryToLoadWh);
    appendField(out, "charge_conversion_loss_wh",
                result.ledger.chargeConversionLossWh);
    appendField(out, "discharge_conversion_loss_wh",
                result.ledger.dischargeConversionLossWh);
    appendField(out, "unserved_wh", result.ledger.unservedWh);
    appendField(out, "spilled_source_wh",
                result.ledger.spilledSourceWh);
    appendField(out, "boot_waste_wh", result.ledger.bootWasteWh);

    appendField(out, "battery_weighted_ah",
                result.batteryWeightedAh);
    appendField(out, "battery_discharge_ah",
                result.batteryDischargeAh);
    appendField(out, "sc_discharge_ah", result.scDischargeAh);
    appendCount(out, "server_on_off_cycles",
                result.serverOnOffCycles);
    appendField(out, "perf_degradation_server_seconds",
                result.perfDegradationServerSeconds);
    appendCount(out, "switch_actuations", result.switchActuations);
    appendField(out, "switch_wear_fraction",
                result.switchWearFraction);
    appendCount(out, "completed_slots", result.completedSlots);
    appendField(out, "peak_utility_draw_w",
                result.peakUtilityDrawW);

    appendSeries(out, "demand_w", result.demandW);
    appendSeries(out, "supply_w", result.supplyW);
    appendSeries(out, "unserved_w", result.unservedW);
    appendSeries(out, "sc_soc", result.scSoc);
    appendSeries(out, "ba_soc", result.baSoc);
    appendSeries(out, "r_lambda_per_slot", result.rLambdaPerSlot);
    out += "\n}\n";
    return out;
}

std::string
fleetResultToJson(const FleetResult &result)
{
    std::string out;
    out += "{\n  \"total_downtime_seconds\": ";
    appendExactNumber(out, result.totalDowntimeSeconds);
    appendField(out, "total_unserved_wh", result.totalUnservedWh);
    appendField(out, "total_served_wh", result.totalServedWh);
    appendField(out, "facility_peak_draw_w",
                result.facilityPeakDrawW);
    appendField(out, "mean_efficiency", result.meanEfficiency);
    appendField(out, "mean_efficiency_unweighted",
                result.meanEfficiencyUnweighted);
    appendCount(out, "macro_spans", result.macroSpans);
    appendCount(out, "macro_span_ticks", result.macroSpanTicks);
    appendCount(out, "dense_ticks", result.denseTicks);
    appendCount(out, "shard_kernel_spans",
                result.shardKernelSpans);
    appendCount(out, "ff_not_calm_ticks", result.ffNotCalmTicks);
    appendCount(out, "ff_horizon_declines",
                result.ffHorizonDeclines);
    appendCount(out, "ff_probe_declines", result.ffProbeDeclines);
    out += ",\n  \"ff_declined_span_hist\": [";
    for (std::size_t b = 0; b < result.ffDeclinedSpanHist.size();
         ++b) {
        if (b)
            out += ", ";
        out += std::to_string(result.ffDeclinedSpanHist[b]);
    }
    out += "]";
    out += ",\n  \"racks\": [";
    for (std::size_t r = 0; r < result.racks.size(); ++r) {
        if (r)
            out += ",";
        out += "\n";
        out += simResultToJson(result.racks[r]);
    }
    out += "]\n}\n";
    return out;
}

std::string
availabilityToJson(const std::vector<AvailabilitySummary> &summaries,
                   const SimConfig &config,
                   const std::string &workload)
{
    std::string out;
    out += "{\n  \"experiment\": \"availability\",\n  \"workload\": ";
    obs::appendJsonString(out, workload);
    out += ",\n  \"duration_seconds\": ";
    obs::appendJsonNumber(out, config.durationSeconds);
    out += ",\n  \"fault_seed\": ";
    obs::appendJsonNumber(out,
                          static_cast<double>(config.faultSeed));
    out += ",\n  \"degradation_policy\": ";
    out += config.degradationPolicy ? "true" : "false";
    out += ",\n  \"schemes\": [\n";
    for (std::size_t i = 0; i < summaries.size(); ++i) {
        const AvailabilitySummary &s = summaries[i];
        out += "    {\"scheme\": ";
        obs::appendJsonString(out, s.scheme);
        out += ", \"scenarios\": ";
        obs::appendJsonNumber(out, static_cast<double>(s.scenarios));
        out += ", \"mean_ens_wh\": ";
        obs::appendJsonNumber(out, s.meanEnsWh);
        out += ", \"p50_ens_wh\": ";
        obs::appendJsonNumber(out, s.p50EnsWh);
        out += ", \"p95_ens_wh\": ";
        obs::appendJsonNumber(out, s.p95EnsWh);
        out += ", \"max_ens_wh\": ";
        obs::appendJsonNumber(out, s.maxEnsWh);
        out += ", \"mean_downtime_s\": ";
        obs::appendJsonNumber(out, s.meanDowntimeSeconds);
        out += ", \"mean_shortfall_ticks\": ";
        obs::appendJsonNumber(out, s.meanShortfallTicks);
        out += ", \"mean_crash_events\": ";
        obs::appendJsonNumber(out, s.meanCrashEvents);
        out += ", \"mean_graceful_sheds\": ";
        obs::appendJsonNumber(out, s.meanGracefulSheds);
        out += ", \"mean_faults_applied\": ";
        obs::appendJsonNumber(out, s.meanFaultsApplied);
        out += ", \"availability\": ";
        obs::appendJsonNumber(out, s.availability);
        out += ", \"ens_wh\": [";
        for (std::size_t k = 0; k < s.ensWhPerScenario.size(); ++k) {
            if (k)
                out += ", ";
            obs::appendJsonNumber(out, s.ensWhPerScenario[k]);
        }
        out += "]}";
        out += i + 1 < summaries.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

bool
writeAvailabilityJson(
    const std::string &path,
    const std::vector<AvailabilitySummary> &summaries,
    const SimConfig &config, const std::string &workload)
{
    // Atomic replace: a crash or full disk leaves the previous
    // summary intact, never a truncated JSON document.
    return writeFileAtomic(
        path, availabilityToJson(summaries, config, workload));
}

std::vector<CapacityPoint>
capacitySweep(const SimConfig &base, const std::vector<double> &dods,
              const HebSchemeConfig &scheme_cfg)
{
    return parallelMap(dods, [&](double dod) {
        SimConfig cfg = base;
        cfg.scDod = dod;
        cfg.baDod = dod;
        auto rows = compareSchemes(cfg, allWorkloadNames(),
                                   {SchemeKind::HebD}, scheme_cfg);
        CapacityPoint p;
        p.dod = dod;
        p.summary = std::move(rows.front());
        return p;
    });
}

} // namespace heb
