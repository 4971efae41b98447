/**
 * @file
 * Experiment orchestration: the paper's evaluation sweeps as
 * reusable functions shared by the bench binaries and examples.
 */

#pragma once

#include <string>
#include <vector>

#include "core/pat.h"
#include "core/scheme.h"
#include "core/schemes.h"
#include "sim/sim_config.h"
#include "sim/sim_result.h"
#include "sim/simulator.h"

namespace heb {

/** Metrics of one scheme averaged across a workload set. */
struct SchemeSummary
{
    std::string scheme;

    /** Mean buffer energy efficiency. */
    double energyEfficiency = 0.0;

    /** Mean efficiency on the small-peak workloads only. */
    double energyEfficiencySmall = 0.0;

    /** Mean efficiency on the large-peak workloads only. */
    double energyEfficiencyLarge = 0.0;

    /** Total downtime across workloads (s). */
    double downtimeSeconds = 0.0;

    /** Mean estimated battery lifetime (years). */
    double batteryLifetimeYears = 0.0;

    /** Mean renewable utilization (solar runs). */
    double reu = 0.0;

    /** Per-workload raw results. */
    std::vector<SimResult> perWorkload;
};

/**
 * Build the profiled PAT the HEB-S / HEB-D schemes start from, over
 * a grid of pilot scenarios (paper §5.2). Every key is placed at
 * once; a cell races the config's banks across the candidate ratios
 * when the table, or any copy of it, first reads it.
 */
PowerAllocationTable buildSeededPat(const SimConfig &config,
                                    const HebSchemeConfig &scheme_cfg);

/**
 * Run one (workload, scheme) pair under @p config.
 *
 * @param seeded_pat  Optional profiled table for the HEB variants.
 */
SimResult runOne(const SimConfig &config,
                 const std::string &workload_name, SchemeKind kind,
                 const HebSchemeConfig &scheme_cfg = {},
                 const PowerAllocationTable *seeded_pat = nullptr);

/**
 * The paper's main comparison (Fig. 12): every scheme over every
 * workload, one summary row per scheme.
 *
 * The (scheme × workload) grid runs on the shared ThreadPool as one
 * flattened task set; results are deterministic and identical to a
 * serial run for any job count. HEB variants start from a cached
 * profiled PAT (see sim/pat_cache.h), seeded once per distinct bank
 * layout.
 */
std::vector<SchemeSummary>
compareSchemes(const SimConfig &config,
               const std::vector<std::string> &workloads,
               const std::vector<SchemeKind> &schemes,
               const HebSchemeConfig &scheme_cfg = {});

/** One point of the Fig. 13 capacity-ratio sweep. */
struct RatioPoint
{
    double scParts = 0.0;
    double baParts = 0.0;
    SchemeSummary summary;
};

/**
 * Fig. 13: constant total capacity, varying SC:BA split, HEB-D over
 * the full workload set.
 */
std::vector<RatioPoint>
ratioSweep(const SimConfig &base,
           const std::vector<std::pair<double, double>> &ratios,
           const HebSchemeConfig &scheme_cfg = {});

/** One point of the Fig. 14 capacity-growth sweep. */
struct CapacityPoint
{
    double dod = 0.0;
    SchemeSummary summary;
};

/**
 * Fig. 14: constant 3:7 split, usable capacity grown by sweeping the
 * DoD throttle (lower DoD = less usable = smaller effective bank).
 */
std::vector<CapacityPoint>
capacitySweep(const SimConfig &base, const std::vector<double> &dods,
              const HebSchemeConfig &scheme_cfg = {});

/** Availability of one scheme across Monte-Carlo fault scenarios. */
struct AvailabilitySummary
{
    std::string scheme;

    /** Scenario count aggregated. */
    std::size_t scenarios = 0;

    /** Mean energy not served per scenario (Wh). */
    double meanEnsWh = 0.0;

    /** Median ENS (Wh). */
    double p50EnsWh = 0.0;

    /** 95th-percentile ENS (Wh). */
    double p95EnsWh = 0.0;

    /** Worst-scenario ENS (Wh). */
    double maxEnsWh = 0.0;

    /** Mean aggregated server downtime (s). */
    double meanDowntimeSeconds = 0.0;

    /** Mean ticks with unserved demand. */
    double meanShortfallTicks = 0.0;

    /** Mean voltage-sag server crashes. */
    double meanCrashEvents = 0.0;

    /** Mean policy-planned server sheds. */
    double meanGracefulSheds = 0.0;

    /** Mean fault events applied per scenario. */
    double meanFaultsApplied = 0.0;

    /** Fraction of ticks fully served, in [0, 1]. */
    double availability = 0.0;

    /** Per-scenario ENS (Wh), in scenario order. */
    std::vector<double> ensWhPerScenario;
};

/**
 * The Monte-Carlo availability experiment: @p scenarios seeded fault
 * plans per scheme, each a full simulation of @p workload with fault
 * injection on. Scenario k of every scheme uses the same fault seed
 * (a SplitMix64 child of base.faultSeed), so schemes face identical
 * failure histories and differ only in how they cope.
 *
 * The scheme x scenario grid runs flattened on the shared ThreadPool;
 * results are bit-identical to a serial run for any job count.
 */
std::vector<AvailabilitySummary>
availabilitySweep(const SimConfig &base, const std::string &workload,
                  const std::vector<SchemeKind> &schemes,
                  std::size_t scenarios,
                  const HebSchemeConfig &scheme_cfg = {});

/**
 * Render one SimResult as a deterministic JSON document: stable key
 * order and round-trip-exact (%.17g) numbers, including the full
 * per-tick demand/supply/unserved series and per-slot SoC series.
 * Two results serialize byte-identically iff every field — down to
 * the last ulp of every tick sample — matches, which is the witness
 * the fast-forward equivalence tests and bench compare.
 */
std::string simResultToJson(const SimResult &result);

struct FleetResult;

/**
 * Render one FleetResult as a deterministic JSON document: stable
 * key order, round-trip-exact (%.17g) numbers, per-rack SimResults
 * embedded via simResultToJson when kept. The byte-identity witness
 * for fleet kill-and-resume: two results serialize identically iff
 * every field matches to the last ulp.
 */
std::string fleetResultToJson(const FleetResult &result);

/**
 * Render availability summaries as a deterministic JSON document
 * (stable key order, %.10g numbers) — byte-identical for identical
 * summaries, which the determinism test and CI artifact rely on.
 */
std::string
availabilityToJson(const std::vector<AvailabilitySummary> &summaries,
                   const SimConfig &config,
                   const std::string &workload);

/**
 * Write availabilityToJson() output to @p path. Returns false (after
 * a warn) when the path cannot be opened — a bad --out must not kill
 * the sweep that produced the data.
 */
bool writeAvailabilityJson(
    const std::string &path,
    const std::vector<AvailabilitySummary> &summaries,
    const SimConfig &config, const std::string &workload);

} // namespace heb
