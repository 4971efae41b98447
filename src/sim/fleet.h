/**
 * @file
 * Multi-rack fleet simulation (the paper's scale-out story, Fig. 8c).
 *
 * Each rack is an independent HEB power domain — its own servers,
 * hybrid banks, relays and hControl — while the facility feed is
 * shared. The feed is the rack config's supply: the utility budget
 * with its outages (plus the fault plan's ATS transfer failures as
 * further outage windows when faults are injected), or, for a
 * one-rack fleet, a solar array. A one-rack Static fleet is the
 * single-rack Simulator. Two budget-arbitration policies are
 * provided:
 *
 *  - Static: every rack gets total/N, period. Simple, but a busy
 *    rack browns out while its neighbour idles.
 *  - Proportional: each tick, racks receive budget proportional to
 *    their instantaneous demand (with a floor), so spare headroom
 *    flows to whoever needs it — what a facility-level hControl can
 *    do that per-rack silos cannot.
 *
 * Two execution engines share those policies:
 *
 *  - Dense: every rack, every tick — the byte-identity witness.
 *  - Event: when every rack is quiescent, the fleet advances all of
 *    them through one shared macro-tick under frozen allocations.
 *    The span ends at the fleet horizon — the min over every rack's
 *    nextEventHorizon(), which by construction is also the next
 *    *arbitration* event: allocations only move when some rack's
 *    demand moves, and each rack's horizon bounds its own demand
 *    change-point. Within the span the dense loop would therefore
 *    recompute bitwise-identical allocations every tick, so freezing
 *    them is exact, and per-rack results match the dense engine at
 *    %.17g.
 *
 * Per-tick computeDemand/tick fan-out is sharded across the shared
 * ThreadPool (ThreadPool::forEachIndex into buffers the run owns),
 * so results are independent of the job count.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/scheme.h"
#include "sim/checkpoint.h"
#include "sim/rack_domain.h"
#include "sim/sim_config.h"
#include "sim/sim_result.h"
#include "workload/workload.h"

namespace heb {

class FleetHealthAggregator;

/** How the shared facility budget is split across racks. */
enum class BudgetPolicy { Static, Proportional };

/** Render a budget policy for logs. */
const char *budgetPolicyName(BudgetPolicy policy);

/** Which execution engine advances the fleet. */
enum class FleetMode { Dense, Event };

/** Render a fleet mode for logs / CLI flags. */
const char *fleetModeName(FleetMode mode);

/** Description of one rack in the fleet. */
struct RackSpec
{
    /** Rack label. */
    std::string name;

    /** Demand generator (not owned; must outlive the simulation).
     *  May be shared between racks: the Workload contract is const
     *  and deterministic, so concurrent reads are safe. */
    const Workload *workload = nullptr;

    /** Management policy (not owned). Must be a *distinct* instance
     *  per rack — schemes carry mutable per-domain state (predictor
     *  history, PAT tables) and racks tick in parallel. */
    ManagementScheme *scheme = nullptr;
};

/** Engine knobs beyond the arbitration policy. */
struct FleetOptions
{
    /** Budget arbitration policy. */
    BudgetPolicy policy = BudgetPolicy::Static;

    /** Execution engine. */
    FleetMode mode = FleetMode::Dense;

    /**
     * Keep the per-rack SimResults in FleetResult::racks. Fleet-scale
     * runs that only consume the aggregate totals set this false so
     * memory stays flat in the rack count; pair with
     * SimConfig::recordSeries = false to also drop the per-tick
     * series inside each domain.
     */
    bool keepPerRackResults = true;

    /**
     * Fleet health aggregator to feed (not owned; may be null).
     * Lives on the slim path: it samples live per-rack gauges every
     * healthSampleSeconds of simulated time and receives every
     * rack's final SimResult through foldRack() regardless of
     * keepPerRackResults.
     */
    FleetHealthAggregator *health = nullptr;

    /**
     * Simulated seconds between live health samples (<= 0 disables
     * live sampling; finalize-time folding still happens).
     */
    double healthSampleSeconds = 0.0;

    /**
     * Callback fired after each live health sample (the `--watch`
     * hook); null for none. Runs on the fleet run-loop thread.
     */
    void (*onHealthSample)(const FleetHealthAggregator &,
                           void *user) = nullptr;

    /** Opaque pointer handed to onHealthSample. */
    void *onHealthSampleUser = nullptr;

    /**
     * fatal() on malformed knobs: NaN health-sample period, or a
     * sample callback without an aggregator to sample.
     */
    void validate() const;
};

/**
 * Bins of FleetResult::ffDeclinedSpanHist: bin i counts declined
 * candidate spans of [2^i, 2^(i+1)) ticks; the last bin is
 * open-ended.
 */
constexpr std::size_t kFfDeclineHistBins = 16;

/** Aggregate + per-rack results of a fleet run. */
struct FleetResult
{
    /** Per-rack results in spec order (empty when the run was
     *  configured with keepPerRackResults = false). */
    std::vector<SimResult> racks;

    /** Total downtime across racks (s). */
    double totalDowntimeSeconds = 0.0;

    /** Total unserved energy (Wh). */
    double totalUnservedWh = 0.0;

    /** Total energy actually delivered to servers (Wh). */
    double totalServedWh = 0.0;

    /** Facility peak draw (W). */
    double facilityPeakDrawW = 0.0;

    /**
     * Mean buffer efficiency across racks, weighted by each rack's
     * served energy: sum(eff_r * served_r) / sum(served_r). An
     * unweighted arithmetic mean lets a near-idle rack bias the
     * fleet number as much as a fully loaded one; weighting by the
     * energy each rack actually delivered makes this the fleet-level
     * EE the paper's facility accounting implies. Falls back to the
     * unweighted mean when no rack served any energy.
     */
    double meanEfficiency = 0.0;

    /** Unweighted arithmetic mean of per-rack efficiencies (the
     *  pre-weighting historical value, kept for comparisons). */
    double meanEfficiencyUnweighted = 0.0;

    /** Committed fleet-wide macro-ticks (event engine only). */
    unsigned long macroSpans = 0;

    /** Ticks advanced inside macro-ticks (event engine only). */
    unsigned long macroSpanTicks = 0;

    /** Ticks advanced by dense per-rack stepping. */
    unsigned long denseTicks = 0;

    /**
     * Committed macro-ticks on which every rack was bank-idle: each
     * commit advanced its banks in one advanceQuiescent() call
     * instead of per-tick charge dispatch (event engine only). The
     * historical name is kept for the JSON and checkpoint keys.
     */
    unsigned long shardKernelSpans = 0;

    // --- Event-engine conservatism instrumentation ----------------
    // Why the event engine did not engage: each count names the
    // check that kept the fleet dense. Mirrored into
    // fleet.ff_decline_total{rack,reason} counters; identical across
    // --jobs by construction.

    /** Dense ticks where some rack's tick was not calm (buffer
     *  draw or demand above allocation) — reason "not_calm". */
    unsigned long ffNotCalmTicks = 0;

    /** Calm ticks declined because the fleet horizon allowed no
     *  full tick before the next event — reason "horizon". */
    unsigned long ffHorizonDeclines = 0;

    /** Candidate spans declined by some rack's fastForwardCheck
     *  probe — reason "probe". */
    unsigned long ffProbeDeclines = 0;

    /** Probe-declined candidate span lengths, log2-binned (bin i
     *  counts spans of [2^i, 2^(i+1)) ticks; last bin open). */
    std::vector<unsigned long> ffDeclinedSpanHist =
        std::vector<unsigned long>(kFfDeclineHistBins, 0);
};

/** A shared-budget multi-rack simulation. */
class FleetSimulator
{
  public:
    /**
     * @param rack_config      Per-rack rig parameters (applied to
     *                         every rack) and the feed's outages,
     *                         faults and supply kind.
     * @param facility_budget  Shared utility budget (W); unused, and
     *                         not validated, for a solar feed.
     * @param options          Policy + engine knobs.
     */
    FleetSimulator(SimConfig rack_config, double facility_budget,
                   FleetOptions options);

    /** Convenience: dense engine, per-rack results kept. */
    FleetSimulator(SimConfig rack_config, double facility_budget,
                   BudgetPolicy policy);

    /**
     * Run the fleet for the configured duration. A solarPowered
     * config takes exactly one rack (fatal otherwise).
     */
    FleetResult run(const std::vector<RackSpec> &racks);

    /**
     * As run(), with periodic checkpointing and/or resume per
     * @p ckpt. A fleet checkpoint is one shard file per rack
     * ("fleet-<tick>-rack<r>.ckpt") plus a manifest
     * ("fleet-<tick>.ckpt") written last, so a valid manifest
     * implies a complete shard set. Restore works across a
     * different --jobs count: results never depend on the job
     * count, so the final FleetResult stays byte-identical at
     * %.17g.
     */
    FleetResult run(const std::vector<RackSpec> &racks,
                    const CheckpointOptions &ckpt);

  private:
    /** Split @p supply_w over @p need into @p alloc. */
    void arbitrate(const std::vector<double> &need, double supply_w,
                   std::vector<double> &alloc) const;

    SimConfig config_;
    double facilityBudgetW_;
    FleetOptions options_;
};

} // namespace heb
