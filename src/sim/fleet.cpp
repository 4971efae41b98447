#include "sim/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "sim/fleet_health.h"
#include "sim/tick_math.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace heb {

namespace {

/**
 * Draw sink handed to fastForwardCommit: buffers one rack's per-tick
 * upstream draws for the span so the fleet can re-sum them per tick
 * *in rack order* afterwards — the same addition order as the dense
 * loop's facility_draw accumulation, keeping the facility peak
 * byte-identical between engines.
 */
class SpanDrawRecorder final : public PowerSource
{
  public:
    const std::string &
    name() const override
    {
        static const std::string n = "span-recorder";
        return n;
    }

    double
    availablePowerW(double) const override
    {
        return 0.0;
    }

    void
    recordDraw(double, double watts, double) override
    {
        draws.push_back(watts);
    }

    std::vector<double> draws;
};

/**
 * Lazily-interned fleet.ff_decline_total{rack,reason} counters for
 * the event engine's fast-forward decline attribution. Reasons:
 * "not_calm" (the rack's dense tick drew on buffers or exceeded its
 * allocation), "horizon" (the rack owned the fleet horizon that left
 * no room for a macro-tick), "probe" (the rack's fastForwardCheck
 * rejected the candidate span).
 */
class FfDeclineCounters
{
  public:
    explicit FfDeclineCounters(const std::vector<RackSpec> &racks)
        : racks_(&racks), notCalm_(racks.size(), nullptr),
          horizon_(racks.size(), nullptr),
          probe_(racks.size(), nullptr)
    {
    }

    void noteNotCalm(std::size_t rack)
    {
        bump(notCalm_, "not_calm", rack);
    }

    void noteHorizon(std::size_t rack)
    {
        bump(horizon_, "horizon", rack);
    }

    void noteProbe(std::size_t rack) { bump(probe_, "probe", rack); }

  private:
    void
    bump(std::vector<obs::Counter *> &slot, const char *reason,
         std::size_t rack)
    {
        if (!obs::metricsOn())
            return;
        if (!slot[rack])
            slot[rack] = &obs::MetricsRegistry::global().counter(
                "fleet.ff_decline_total",
                {{"rack", (*racks_)[rack].name}, {"reason", reason}});
        slot[rack]->inc();
    }

    const std::vector<RackSpec> *racks_;
    std::vector<obs::Counter *> notCalm_;
    std::vector<obs::Counter *> horizon_;
    std::vector<obs::Counter *> probe_;
};

/** FleetResult::ffDeclinedSpanHist bin of a @p span_ticks span. */
std::size_t
ffDeclineHistBin(std::size_t span_ticks)
{
    std::size_t bin = 0;
    while (span_ticks > 1 && bin + 1 < kFfDeclineHistBins) {
        span_ticks >>= 1;
        ++bin;
    }
    return bin;
}

} // namespace

void
FleetOptions::validate() const
{
    if (std::isnan(healthSampleSeconds))
        fatal("FleetOptions: healthSampleSeconds is NaN");
    if (onHealthSample && !health)
        fatal("FleetOptions: onHealthSample callback set but no "
              "health aggregator to sample");
}

const char *
budgetPolicyName(BudgetPolicy policy)
{
    switch (policy) {
      case BudgetPolicy::Static: return "static";
      case BudgetPolicy::Proportional: return "proportional";
    }
    return "?";
}

const char *
fleetModeName(FleetMode mode)
{
    switch (mode) {
      case FleetMode::Dense: return "dense";
      case FleetMode::Event: return "event";
    }
    return "?";
}

FleetSimulator::FleetSimulator(SimConfig rack_config,
                               double facility_budget,
                               FleetOptions options)
    : config_(std::move(rack_config)),
      facilityBudgetW_(facility_budget), options_(options)
{
    config_.validate();
    options_.validate();
    if (std::isnan(facility_budget) || facility_budget <= 0.0)
        fatal("FleetSimulator: facility budget must be positive");
}

FleetSimulator::FleetSimulator(SimConfig rack_config,
                               double facility_budget,
                               BudgetPolicy policy)
    : FleetSimulator(std::move(rack_config), facility_budget,
                     FleetOptions{policy, FleetMode::Dense, true})
{
}

void
FleetSimulator::computeNeeds(
    std::vector<std::unique_ptr<RackDomain>> &domains,
    const std::vector<std::size_t> &idx, double now,
    std::vector<double> &need) const
{
    // Weight by *need*, not just instantaneous demand: a rack whose
    // servers were shed must receive enough headroom to restart
    // them, or a brown-out becomes a permanent allocation death
    // spiral.
    std::vector<double> computed =
        parallelMap(idx, [&](std::size_t r) {
            RackDomain &domain = *domains[r];
            return domain.computeDemand(now) +
                   static_cast<double>(domain.offlineServers()) *
                       domain.serverPeakPowerW() * 1.2;
        });
    need.swap(computed);
}

void
FleetSimulator::arbitrate(const std::vector<double> &need,
                          std::vector<double> &alloc) const
{
    // total_need is accumulated in rack order: the allocation is a
    // pure function of the full need vector, and re-associating the
    // sum would move it in the last ulp.
    const std::size_t n = need.size();
    double total_need = 0.0;
    for (std::size_t r = 0; r < n; ++r)
        total_need += need[r];

    double equal_share = facilityBudgetW_ / static_cast<double>(n);
    if (options_.policy == BudgetPolicy::Static ||
        total_need <= 0.0) {
        std::fill(alloc.begin(), alloc.end(), equal_share);
    } else {
        // Proportional-to-need with a 25 % floor of the equal
        // share so an idle rack can still charge its buffers.
        double floor = 0.25 * equal_share;
        double flexible =
            facilityBudgetW_ - floor * static_cast<double>(n);
        for (std::size_t r = 0; r < n; ++r)
            alloc[r] = floor + flexible * need[r] / total_need;
    }
}

FleetResult
FleetSimulator::run(const std::vector<RackSpec> &racks)
{
    return run(racks, CheckpointOptions{});
}

FleetResult
FleetSimulator::run(const std::vector<RackSpec> &racks,
                    const CheckpointOptions &ckpt)
{
    HEB_PROF_SCOPE("fleet.run");
    ckpt.validate();
    options_.validate();
    if (racks.empty())
        fatal("FleetSimulator: need at least one rack");
    std::unordered_set<const ManagementScheme *> schemes;
    for (const RackSpec &spec : racks) {
        if (!spec.workload || !spec.scheme)
            fatal("FleetSimulator: rack '", spec.name,
                  "' missing workload or scheme");
        // Schemes carry mutable per-domain state and racks tick in
        // parallel; sharing one instance is a data race (and wrong
        // even serially — predictor history would interleave).
        if (!schemes.insert(spec.scheme).second)
            fatal("FleetSimulator: rack '", spec.name,
                  "' shares a scheme instance with another rack; "
                  "give each rack its own");
    }

    // One shared fault plan for every rack: generation is pure in
    // (params, duration, seed), so per-domain regeneration produced
    // n identical copies of the same schedule.
    fault::FaultPlan plan;
    const fault::FaultPlan *shared_plan = nullptr;
    if (config_.faultInjection) {
        plan = fault::FaultPlan::generate(config_.faultPlan,
                                          config_.durationSeconds,
                                          config_.faultSeed);
        shared_plan = &plan;
    }

    std::vector<std::unique_ptr<RackDomain>> domains;
    domains.reserve(racks.size());
    for (std::size_t r = 0; r < racks.size(); ++r) {
        const RackSpec &spec = racks[r];
        domains.push_back(std::make_unique<RackDomain>(
            config_, *spec.workload, *spec.scheme, spec.name,
            shared_plan));
        // Rack index = trace track: every event this domain records
        // lands on its own timeline in the Chrome trace.
        domains.back()->setTraceTrack(
            static_cast<std::uint16_t>(domains.size() - 1));
    }

    FleetHealthAggregator *health = options_.health;
    if (health) {
        std::vector<std::string> rack_names;
        std::vector<std::string> scheme_names;
        for (const RackSpec &spec : racks) {
            rack_names.push_back(spec.name);
            scheme_names.push_back(spec.scheme->name());
        }
        health->beginRun(rack_names, scheme_names,
                         config_.numServers);
    }

    const double dt = config_.tickSeconds;
    const std::size_t n = racks.size();
    // Round up so a trailing partial tick is simulated, not dropped.
    auto ticks =
        static_cast<std::size_t>(config_.durationSeconds / dt);
    if (static_cast<double>(ticks) * dt < config_.durationSeconds)
        ++ticks;

    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});

    FleetResult result;
    std::vector<double> need(n, 0.0);
    std::vector<double> alloc(n, 0.0);
    std::vector<double> alloc_ff(n, 0.0);
    std::vector<SpanDrawRecorder> recorders(n);
    FfDeclineCounters declines(racks);

    // Live health sampling reads domain state between the parallel
    // sections (never concurrently with ticking) and touches no
    // simulation state, so it cannot perturb results.
    double next_health = 0.0;
    auto sampleHealth = [&](double t) {
        if (!health || options_.healthSampleSeconds <= 0.0 ||
            t < next_health)
            return;
        for (std::size_t r = 0; r < n; ++r)
            health->sampleLive(r, *domains[r], t);
        health->noteProgress(t, config_.durationSeconds,
                             result.denseTicks,
                             result.macroSpanTicks,
                             result.macroSpans);
        if (options_.onHealthSample)
            options_.onHealthSample(*health,
                                    options_.onHealthSampleUser);
        next_health = t + options_.healthSampleSeconds;
    };

    std::size_t tick_i = 0;

    // ---- Checkpointing ------------------------------------------
    // Same tick-boundary, mutate-nothing contract as the single-rack
    // engine (see Simulator::run); the fleet adds sharding. Shards
    // are written first and the manifest last, both atomically, so a
    // readable manifest implies its complete shard set is durable.
    auto manifest_payload = [&](std::uint64_t at_tick) {
        CheckpointWriter w;
        w.putDouble("meta.duration_s", config_.durationSeconds);
        w.putDouble("meta.tick_s", config_.tickSeconds);
        w.putDouble("meta.slot_s", config_.slotSeconds);
        w.putU64("meta.seed", config_.seed);
        w.putU64("meta.fault_seed", config_.faultSeed);
        w.putU64("meta.servers", config_.numServers);
        w.putDouble("meta.facility_budget_w", facilityBudgetW_);
        w.putString("meta.policy",
                    budgetPolicyName(options_.policy));
        w.putString("meta.mode", fleetModeName(options_.mode));
        w.putBool("meta.faults", config_.faultInjection);
        w.putU64("meta.racks", n);
        for (std::size_t r = 0; r < n; ++r) {
            std::string p = "meta.rack." + std::to_string(r);
            w.putString(p + ".name", racks[r].name);
            w.putString(p + ".scheme", racks[r].scheme->name());
            w.putString(p + ".workload",
                        racks[r].workload->name());
        }
        w.putU64("fleet.tick", at_tick);
        w.putDouble("fleet.peak_draw_w", result.facilityPeakDrawW);
        w.putU64("fleet.dense_ticks", result.denseTicks);
        w.putU64("fleet.macro_spans", result.macroSpans);
        w.putU64("fleet.macro_span_ticks", result.macroSpanTicks);
        w.putU64("fleet.shard_kernel_spans",
                 result.shardKernelSpans);
        w.putU64("fleet.ff_not_calm_ticks", result.ffNotCalmTicks);
        w.putU64("fleet.ff_horizon_declines",
                 result.ffHorizonDeclines);
        w.putU64("fleet.ff_probe_declines",
                 result.ffProbeDeclines);
        for (std::size_t b = 0; b < kFfDeclineHistBins; ++b)
            w.putU64("fleet.ff_hist." + std::to_string(b),
                     result.ffDeclinedSpanHist[b]);
        w.putDouble("fleet.next_health", next_health);
        return w.payload();
    };

    auto shard_payload = [&](std::size_t r) {
        CheckpointWriter w;
        w.putString("shard.rack", racks[r].name);
        domains[r]->checkpointSave(w, "rack.");
        return w.payload();
    };

    auto write_fleet_checkpoint = [&](std::uint64_t at_tick) {
        bool ok = true;
        for (std::size_t r = 0; r < n; ++r)
            ok = writeCheckpointFile(
                     fleetShardCheckpointPath(ckpt.dir, at_tick, r),
                     shard_payload(r)) &&
                 ok;
        if (ok)
            writeCheckpointFile(
                checkpointFilePath(ckpt.dir, "fleet", at_tick),
                manifest_payload(at_tick));
        else
            warn("fleet checkpoint at tick ", at_tick,
                 ": shard write failed; manifest withheld");
    };

    if (ckpt.resume) {
        bool restored = false;
        for (std::uint64_t t :
             listCheckpointTicks(ckpt.dir, "fleet")) {
            std::string mpath =
                checkpointFilePath(ckpt.dir, "fleet", t);
            std::string payload, error;
            if (!readCheckpointFile(mpath, payload, error)) {
                warn("skipping ", mpath, ": ", error);
                continue;
            }
            CheckpointReader m;
            if (!m.parse(payload, error)) {
                warn("skipping ", mpath, ": ", error);
                continue;
            }
            auto guard = [&](bool ok_field, const char *field) {
                if (!ok_field)
                    fatal("checkpoint ", mpath,
                          " was written under a different ", field,
                          "; refusing to resume");
            };
            guard(m.getDouble("meta.duration_s") ==
                      config_.durationSeconds,
                  "duration");
            guard(m.getDouble("meta.tick_s") ==
                      config_.tickSeconds,
                  "tick length");
            guard(m.getDouble("meta.slot_s") ==
                      config_.slotSeconds,
                  "slot length");
            guard(m.getU64("meta.seed") == config_.seed, "seed");
            guard(m.getU64("meta.fault_seed") == config_.faultSeed,
                  "fault seed");
            guard(m.getU64("meta.servers") == config_.numServers,
                  "server count");
            guard(m.getDouble("meta.facility_budget_w") ==
                      facilityBudgetW_,
                  "facility budget");
            guard(m.getString("meta.policy") ==
                      budgetPolicyName(options_.policy),
                  "budget policy");
            guard(m.getString("meta.mode") ==
                      fleetModeName(options_.mode),
                  "fleet mode");
            guard(m.getBool("meta.faults") ==
                      config_.faultInjection,
                  "fault-injection setting");
            guard(m.getU64("meta.racks") == n, "rack count");
            for (std::size_t r = 0; r < n; ++r) {
                std::string p = "meta.rack." + std::to_string(r);
                guard(m.getString(p + ".name") == racks[r].name,
                      "rack roster");
                guard(m.getString(p + ".scheme") ==
                          racks[r].scheme->name(),
                      "rack scheme");
                guard(m.getString(p + ".workload") ==
                          racks[r].workload->name(),
                      "rack workload");
            }

            // Validate every shard before mutating any domain, so
            // a torn shard set falls back to an older checkpoint
            // with the fleet untouched.
            std::vector<CheckpointReader> shards(n);
            bool all_ok = true;
            for (std::size_t r = 0; r < n && all_ok; ++r) {
                std::string spath = fleetShardCheckpointPath(ckpt.dir, t, r);
                std::string sp;
                if (!readCheckpointFile(spath, sp, error) ||
                    !shards[r].parse(sp, error)) {
                    warn("skipping checkpoint at tick ", t,
                         ": shard ", spath, ": ", error);
                    all_ok = false;
                }
            }
            if (!all_ok)
                continue;
            for (std::size_t r = 0; r < n; ++r) {
                if (shards[r].getString("shard.rack") !=
                    racks[r].name)
                    fatal("checkpoint shard ",
                          fleetShardCheckpointPath(ckpt.dir, t, r),
                          " belongs to rack '",
                          shards[r].getString("shard.rack"),
                          "', expected '", racks[r].name, "'");
                domains[r]->checkpointLoad(shards[r], "rack.");
            }
            tick_i = static_cast<std::size_t>(
                m.getU64("fleet.tick"));
            result.facilityPeakDrawW =
                m.getDouble("fleet.peak_draw_w");
            result.denseTicks = m.getU64("fleet.dense_ticks");
            result.macroSpans = m.getU64("fleet.macro_spans");
            result.macroSpanTicks =
                m.getU64("fleet.macro_span_ticks");
            result.shardKernelSpans =
                m.getU64("fleet.shard_kernel_spans");
            // Decline instrumentation arrived after the manifest
            // format; an older manifest restores with zeroed
            // counters rather than refusing to resume.
            if (m.has("fleet.ff_not_calm_ticks")) {
                result.ffNotCalmTicks =
                    m.getU64("fleet.ff_not_calm_ticks");
                result.ffHorizonDeclines =
                    m.getU64("fleet.ff_horizon_declines");
                result.ffProbeDeclines =
                    m.getU64("fleet.ff_probe_declines");
                for (std::size_t b = 0; b < kFfDeclineHistBins;
                     ++b)
                    result.ffDeclinedSpanHist[b] = m.getU64(
                        "fleet.ff_hist." + std::to_string(b));
            }
            next_health = m.getDouble("fleet.next_health");
            inform("resumed fleet from ", mpath, " at tick ",
                   tick_i, " (t=",
                   static_cast<double>(tick_i) * dt, " s)");
            restored = true;
            break;
        }
        if (!restored)
            warn("no valid fleet checkpoint under ", ckpt.dir,
                 "; starting from t=0");
    }

    std::uint64_t ckpt_seq = 0;
    if (ckpt.everySimSeconds > 0.0)
        ckpt_seq = static_cast<std::uint64_t>(
            static_cast<double>(tick_i) * dt /
            ckpt.everySimSeconds);

    if (ckpt.enabled()) {
        installCheckpointOnFatal([&]() {
            for (std::size_t r = 0; r < n; ++r)
                writeCheckpointFile(
                    ckpt.dir + "/fleet-emergency-rack" +
                        std::to_string(r) +
                        kAbortedCheckpointSuffix,
                    shard_payload(r));
            writeCheckpointFile(ckpt.dir + "/fleet-emergency" +
                                    kAbortedCheckpointSuffix,
                                manifest_payload(tick_i));
        });
    }

    while (tick_i < ticks) {
        double now = static_cast<double>(tick_i) * dt;

        if (ckpt.everySimSeconds > 0.0 &&
            now >= static_cast<double>(ckpt_seq + 1) *
                       ckpt.everySimSeconds) {
            ++ckpt_seq;
            write_fleet_checkpoint(tick_i);
        }

        computeNeeds(domains, idx, now, need);
        arbitrate(need, alloc);

        std::vector<RackDomain::TickOutcome> outs =
            parallelMap(idx, [&](std::size_t r) {
                return domains[r]->tick(now, alloc[r]);
            });

        double facility_draw = 0.0;
        for (std::size_t r = 0; r < n; ++r)
            facility_draw += outs[r].sourceDrawW;
        result.facilityPeakDrawW =
            std::max(result.facilityPeakDrawW, facility_draw);

        ++tick_i;
        ++result.denseTicks;
        sampleHealth(now);

        if (options_.mode != FleetMode::Event || tick_i >= ticks)
            continue;
        // Cheap guard: a rack that just drew on its buffers (or
        // shed) is mid-mismatch — stay dense until every rack has a
        // calm tick again. Every offending rack is attributed (no
        // early break): the decline counters are the data ROADMAP
        // item 1's lax-sync decision rests on.
        bool calm = true;
        for (std::size_t r = 0; r < n; ++r) {
            if (outs[r].unservedW > 0.0 ||
                outs[r].demandW > alloc[r]) {
                calm = false;
                declines.noteNotCalm(r);
            }
        }
        if (!calm) {
            ++result.ffNotCalmTicks;
            continue;
        }

        // Fleet horizon: the earliest instant after `now` at which
        // any rack's tick inputs may change. Because allocations are
        // a pure function of the rack demands (and the constant
        // facility budget), this is also the next arbitration event:
        // inside the span the dense loop would recompute bitwise-
        // identical allocations every tick, so freezing them at t1
        // is exact.
        double horizon = std::numeric_limits<double>::infinity();
        std::size_t horizon_rack = 0;
        for (std::size_t r = 0; r < n; ++r) {
            double h = domains[r]->nextEventHorizon(now);
            if (h < horizon) {
                horizon = h;
                // First rack achieving the min (rack order) owns
                // the horizon for decline attribution.
                horizon_rack = r;
            }
        }
        double t1 = static_cast<double>(tick_i) * dt;
        if (horizon <= t1) {
            ++result.ffHorizonDeclines;
            declines.noteHorizon(horizon_rack);
            continue;
        }

        std::size_t span;
        if (std::isinf(horizon)) {
            span = ticks - tick_i;
        } else {
            std::size_t last = lastTickBefore(horizon, dt);
            if (last < tick_i) {
                ++result.ffHorizonDeclines;
                declines.noteHorizon(horizon_rack);
                continue;
            }
            span = std::min(last - tick_i + 1, ticks - tick_i);
        }

        // Recompute needs and allocations at the span start — the
        // exact FP sequence the dense loop would run at t1, so a
        // declined span leaves nothing to undo (computeDemand and
        // the probe's controller tick are idempotent re-runs of the
        // next dense tick's own work).
        computeNeeds(domains, idx, t1, need);
        arbitrate(need, alloc_ff);

        // All-or-nothing probe: commit only when *every* rack
        // accepts the span at its frozen allocation.
        std::vector<int> oks =
            parallelMap(idx, [&](std::size_t r) {
                return domains[r]->fastForwardCheck(span,
                                                    alloc_ff[r])
                           ? 1
                           : 0;
            });
        if (!std::all_of(oks.begin(), oks.end(),
                         [](int ok) { return ok != 0; })) {
            ++result.ffProbeDeclines;
            ++result.ffDeclinedSpanHist[ffDeclineHistBin(span)];
            for (std::size_t r = 0; r < n; ++r)
                if (!oks[r])
                    declines.noteProbe(r);
            continue;
        }

        for (std::size_t r = 0; r < n; ++r) {
            recorders[r].draws.clear();
            recorders[r].draws.reserve(span);
        }
        // Commits report whether their banks sat idle for the span.
        std::vector<int> idle =
            parallelMap(idx, [&](std::size_t r) {
                return domains[r]->fastForwardCommit(
                           span, alloc_ff[r], recorders[r])
                           ? 1
                           : 0;
            });
        if (std::all_of(idle.begin(), idle.end(),
                        [](int i) { return i != 0; }))
            ++result.shardKernelSpans;

        // Facility peak: re-sum each span tick in rack order — the
        // same addition order as the dense accumulation above.
        for (std::size_t j = 0; j < span; ++j) {
            double fd = 0.0;
            for (std::size_t r = 0; r < n; ++r)
                fd += recorders[r].draws[j];
            result.facilityPeakDrawW =
                std::max(result.facilityPeakDrawW, fd);
        }

        tick_i += span;
        ++result.macroSpans;
        result.macroSpanTicks += span;
        sampleHealth(static_cast<double>(tick_i - 1) * dt);
    }

    if (ckpt.enabled())
        clearCheckpointOnFatal();

    double eff_weighted = 0.0;
    double eff_unweighted = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
        SimResult rr;
        rr.schemeName = racks[r].scheme->name();
        rr.workloadName = racks[r].workload->name();
        rr.workloadPeakClass = racks[r].workload->peakClass();
        domains[r]->finalize(rr);
        result.totalDowntimeSeconds += rr.downtimeSeconds;
        result.totalUnservedWh += rr.ledger.unservedWh;
        double served = rr.ledger.servedWh();
        result.totalServedWh += served;
        eff_weighted += rr.energyEfficiency * served;
        eff_unweighted += rr.energyEfficiency;
        // Fold before the result is (possibly) moved away: the
        // aggregator sees the same SimResult in the same rack order
        // on the slim and full paths, so its rollups agree with
        // kept per-rack results bit for bit.
        if (health)
            health->foldRack(r, rr);
        if (options_.keepPerRackResults)
            result.racks.push_back(std::move(rr));
    }
    result.meanEfficiencyUnweighted =
        eff_unweighted / static_cast<double>(n);
    result.meanEfficiency =
        result.totalServedWh > 0.0
            ? eff_weighted / result.totalServedWh
            : result.meanEfficiencyUnweighted;
    if (health)
        health->recordEngineTotals(result);
    return result;
}

} // namespace heb
