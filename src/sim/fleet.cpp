#include "sim/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "power/solar_array.h"
#include "power/utility_grid.h"
#include "sim/fleet_health.h"
#include "sim/plan_cache.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace heb {

namespace {

/**
 * The facility's upstream supply, built once per run from the rack
 * config: the utility grid at the facility budget, whose outage
 * windows are the config's outages plus, when faults are injected,
 * the fault plan's ATS transfer failures (a stuck switch cuts the
 * supply exactly like an outage) — or a solar array over the shared
 * trace, which also meters the harvested energy for REU.
 */
class FacilityFeed
{
  public:
    FacilityFeed(const SimConfig &config, double budget_w,
                 const fault::FaultPlan *plan)
    {
        if (config.solarPowered) {
            // The trace is pure in (params, duration, dt, seed), so
            // same-config runs sample it once and share it; harvest
            // accounting stays per instance.
            auto solar = std::make_unique<SolarArray>(
                config.solarParams,
                SharedPlanCache::global().solarTrace(
                    config.solarParams, config.durationSeconds,
                    config.tickSeconds, config.seed));
            solar_ = solar.get();
            source_ = std::move(solar);
            return;
        }
        auto grid = std::make_unique<UtilityGrid>(budget_w);
        for (auto [start, duration] : config.outages)
            grid->addOutage(start, duration);
        if (plan) {
            for (const fault::FaultEvent &ev :
                 plan->ofKind(fault::FaultKind::AtsTransferFailure))
                grid->addOutage(ev.startSeconds, ev.durationSeconds);
        }
        source_ = std::move(grid);
    }

    double
    availablePowerW(double now) const
    {
        return source_->availablePowerW(now);
    }

    double
    nextChangeTime(double now) const
    {
        return source_->nextChangeTime(now);
    }

    /** Meter one tick's facility draw; only a solar feed keeps it. */
    void
    recordDraw(double watts, double dt)
    {
        if (solar_)
            solar_->recordHarvest(watts, dt);
    }

    /** Harvested energy so far (Wh); 0 on a utility feed. */
    double
    harvestedWh() const
    {
        return solar_ ? solar_->harvestedWh() : 0.0;
    }

    /** Restore the harvest meter (a no-op on a utility feed). */
    void
    restoreHarvestedWh(double wh)
    {
        if (solar_)
            solar_->restoreHarvestedWh(wh);
    }

    /**
     * Fill a solar-fed rack's spilled generation and renewable
     * energy utilization; a no-op on a utility feed.
     */
    void
    finishRack(SimResult &result) const
    {
        if (!solar_)
            return;
        double gen = solar_->totalGenerationWh();
        if (gen <= 0.0)
            return;
        // Spilled generation = generated - everything drawn.
        result.ledger.spilledSourceWh =
            std::max(0.0, gen - solar_->harvestedWh());
        result.reu = std::clamp((result.ledger.sourceToLoadWh +
                                 result.ledger.sourceToBuffersWh()) /
                                    gen,
                                0.0, 1.0);
    }

  private:
    std::unique_ptr<PowerSource> source_;
    SolarArray *solar_ = nullptr; //!< source_, when solar-fed
};

/**
 * Largest tick index whose time (index * dt, the same FP product as
 * the run loop's `now`) lies strictly before @p horizon. The
 * float-then-adjust dance lands an event edge on exactly the dense
 * tick that would have processed it.
 */
std::size_t
lastTickBefore(double horizon, double dt)
{
    auto last = static_cast<std::size_t>(horizon / dt);
    while (last > 0 && static_cast<double>(last) * dt >= horizon)
        --last;
    while (static_cast<double>(last + 1) * dt < horizon)
        ++last;
    return last;
}

/**
 * One rack's need at @p now, computing (and caching) its demand for
 * the tick at @p now. Weighted by *need*, not just instantaneous
 * demand: a rack whose servers were shed must receive enough headroom
 * to restart them, or a brown-out becomes a permanent allocation
 * death spiral.
 */
double
rackNeed(RackDomain &domain, double now)
{
    return domain.computeDemand(now) +
           static_cast<double>(domain.offlineServers()) *
               domain.serverPeakPowerW() * 1.2;
}

/** Fill every rack's need at @p now, in place. */
void
computeNeeds(ThreadPool &pool,
             std::vector<std::unique_ptr<RackDomain>> &domains,
             double now, std::vector<double> &need)
{
    pool.forEachIndex(domains.size(), [&](std::size_t r) {
        need[r] = rackNeed(*domains[r], now);
    });
}

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
      facilityBudgetW_(config_.solarPowered ? 0.0 : facility_budget),
      options_(options)
{
    config_.validate();
    options_.validate();
    // A solar feed has no budget: the array's output is the supply.
    if (!config_.solarPowered &&
        (std::isnan(facility_budget) || facility_budget <= 0.0))
        fatal("FleetSimulator: facility budget must be positive");
}

void
FleetSimulator::arbitrate(const std::vector<double> &need,
                          double supply_w,
                          std::vector<double> &alloc) const
{
    // total_need is accumulated in rack order: the allocation is a
    // pure function of the full need vector, and re-associating the
    // sum would move it in the last ulp.
    const std::size_t n = need.size();
    double total_need = 0.0;
    for (std::size_t r = 0; r < n; ++r)
        total_need += need[r];

    double equal_share = supply_w / static_cast<double>(n);
    if (options_.policy == BudgetPolicy::Static ||
        total_need <= 0.0) {
        std::fill(alloc.begin(), alloc.end(), equal_share);
    } else {
        // Proportional-to-need with a 25 % floor of the equal
        // share so an idle rack can still charge its buffers.
        double floor = 0.25 * equal_share;
        double flexible = supply_w - floor * static_cast<double>(n);
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
    if (config_.solarPowered && racks.size() > 1)
        fatal("FleetSimulator: a solarPowered feed supplies one rack, "
              "got ", racks.size());
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
    // A grid feed below the all-idle draw sheds servers from the
    // first tick whatever the scheme does: a sizing mistake, not a
    // scenario. Outages stay legal; a solar feed has no budget.
    const double idle_w = static_cast<double>(racks.size()) *
                          static_cast<double>(config_.numServers) *
                          config_.serverParams.idlePowerW;
    if (!config_.solarPowered && facilityBudgetW_ < idle_w)
        fatal("FleetSimulator: facility budget ", facilityBudgetW_,
              " W (budget_w / --budget-w) is below the idle draw of ",
              racks.size(), " rack(s) x ", config_.numServers,
              " servers (servers / --servers) = ", idle_w, " W");

    // One fault plan for the feed's ATS outage windows and every rack:
    // generation is pure in (params, duration, seed), so per-domain
    // regeneration produced n identical copies of the same schedule.
    fault::FaultPlan plan;
    const fault::FaultPlan *shared_plan = nullptr;
    if (config_.faultInjection) {
        plan = fault::FaultPlan::generate(config_.faultPlan,
                                          config_.durationSeconds,
                                          config_.faultSeed);
        shared_plan = &plan;
    }
    FacilityFeed feed(config_, facilityBudgetW_, shared_plan);

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

    // Per-tick buffers live for the whole run and are filled in
    // place: with one rack (or one lane) the fan-outs below run
    // inline, and the loop allocates nothing per tick. A one-rack
    // run never touches the shared pool, so it starts no workers (a
    // forked child, say, runs it without spawning threads); the
    // one-lane pool has no workers and no per-call state to share.
    static ThreadPool solo(1);
    ThreadPool &pool = n > 1 ? ThreadPool::global() : solo;
    FleetResult result;
    std::vector<double> need(n, 0.0);
    std::vector<double> alloc(n, 0.0);
    std::vector<double> alloc_ff(n, 0.0);
    std::vector<RackDomain::TickOutcome> outs(n);
    std::vector<int> probe_ok(n, 0);
    std::vector<int> banks_idle(n, 0);
    std::vector<std::vector<double>> span_draws(n);
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
    // Snapshots are taken at the top of the loop, at a tick
    // boundary, and mutate no simulation state; restoring one
    // reproduces every input the remaining ticks depend on. That is
    // the whole exactness argument (DESIGN.md §14): checkpointed,
    // killed-and-resumed and uninterrupted runs execute the same
    // floating-point operations in the same order. Shards are
    // written first and the manifest last, both atomically, so a
    // readable manifest implies its complete shard set is durable.
    //
    // One field list per file, for both directions. The manifest's
    // meta.* keys must match this run; its fleet.* and sink.* keys
    // are the loop's own progress, which a resume reads into a copy
    // and adopts only once every rack file has parsed.
    struct Progress
    {
        std::uint64_t tick = 0;
        FleetResult counters;
        double nextHealth = 0.0;
        double harvestedWh = 0.0;
    };
    auto manifest_fields = [&](CheckpointFields &io, Progress &p) {
        io.same("meta.duration_s", config_.durationSeconds, "duration");
        io.same("meta.tick_s", config_.tickSeconds, "tick length");
        io.same("meta.slot_s", config_.slotSeconds, "slot length");
        io.same("meta.seed", config_.seed, "seed");
        io.same("meta.fault_seed", config_.faultSeed, "fault seed");
        io.same("meta.servers", config_.numServers, "server count");
        io.same("meta.facility_budget_w", facilityBudgetW_,
                "facility budget");
        io.same("meta.policy",
                std::string(budgetPolicyName(options_.policy)),
                "budget policy");
        io.same("meta.mode", std::string(fleetModeName(options_.mode)),
                "fleet mode");
        io.same("meta.faults", config_.faultInjection,
                "fault-injection setting");
        io.same("meta.solar", config_.solarPowered, "supply kind");
        io.same("meta.racks", n, "rack count");
        for (std::size_t r = 0; r < n; ++r) {
            std::string k = "meta.rack." + std::to_string(r);
            io.same(k + ".name", racks[r].name, "rack roster");
            io.same(k + ".scheme", racks[r].scheme->name(),
                    "rack scheme");
            io.same(k + ".workload", racks[r].workload->name(),
                    "rack workload");
        }
        FleetResult &c = p.counters;
        io.field("fleet.tick", p.tick);
        io.field("fleet.peak_draw_w", c.facilityPeakDrawW);
        io.field("fleet.dense_ticks", c.denseTicks);
        io.field("fleet.macro_spans", c.macroSpans);
        io.field("fleet.macro_span_ticks", c.macroSpanTicks);
        io.field("fleet.shard_kernel_spans", c.shardKernelSpans);
        io.field("fleet.ff_not_calm_ticks", c.ffNotCalmTicks);
        io.field("fleet.ff_horizon_declines", c.ffHorizonDeclines);
        io.field("fleet.ff_probe_declines", c.ffProbeDeclines);
        for (std::size_t b = 0; b < kFfDeclineHistBins; ++b)
            io.field("fleet.ff_hist." + std::to_string(b),
                     c.ffDeclinedSpanHist[b]);
        io.field("fleet.next_health", p.nextHealth);
        if (config_.solarPowered)
            io.field("sink.solar_harvested_wh", p.harvestedWh);
    };
    auto rack_fields = [&](CheckpointFields &io, std::size_t r) {
        io.same("shard.rack", racks[r].name, "rack");
        domains[r]->checkpoint(io, "rack.");
    };

    auto manifest_payload = [&](std::uint64_t at_tick) {
        CheckpointWriter w;
        CheckpointFields io(w);
        Progress p{at_tick, result, next_health, feed.harvestedWh()};
        manifest_fields(io, p);
        return w.payload();
    };

    auto shard_payload = [&](std::size_t r) {
        CheckpointWriter w;
        CheckpointFields io(w);
        rack_fields(io, r);
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
            CheckpointReader m;
            if (!readCheckpointFile(mpath, payload, error) ||
                !m.parse(payload, error)) {
                warn("skipping ", mpath, ": ", error);
                continue;
            }
            // The guards fire first: a manifest written under another
            // configuration is fatal, not skipped.
            Progress at;
            CheckpointFields manifest(m, mpath);
            manifest_fields(manifest, at);

            // Parse every shard before mutating any domain, so a
            // torn shard set falls back to an older checkpoint with
            // the fleet untouched.
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
                CheckpointFields shard(
                    shards[r], fleetShardCheckpointPath(ckpt.dir, t, r));
                rack_fields(shard, r);
            }
            tick_i = static_cast<std::size_t>(at.tick);
            result = std::move(at.counters);
            next_health = at.nextHealth;
            feed.restoreHarvestedWh(at.harvestedWh);
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
    auto checkpoint_due = [&](double t) {
        return ckpt.everySimSeconds > 0.0 &&
               t >= static_cast<double>(ckpt_seq + 1) *
                        ckpt.everySimSeconds;
    };

    // The emergency writer captures this frame by reference, so it is
    // disarmed however run() leaves it — a rack's tick may throw
    // through the pool.
    struct DisarmOnExit
    {
        bool armed;
        ~DisarmOnExit()
        {
            if (armed)
                clearCheckpointOnFatal();
        }
    } disarm{ckpt.enabled()};
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

    // ---- Pipelined needs -----------------------------------------
    // Each rack's tick task at `now` also computes that rack's need
    // for the next tick, so a dense tick makes one pool fan-out, not
    // two. This is exact: computeDemand writes only the domain's
    // util_, utilCache_, cachedDemand_ and its cluster's lastActive_
    // stamps, and nothing between the tick fan-out and the next
    // arbitration reads them: not the facility-draw sum, the calm
    // check, nextEventHorizon, sampleLive or the probe at t1 (which
    // recomputes the same demand itself). `need_ready` says `need`
    // holds the needs at tick_i. It is false, and the separate pass
    // runs, on the first tick (also of a resumed run), after a
    // committed macro-span (the state moved past the pipelined
    // need) and on a tick whose checkpoint write is due, so the
    // snapshot keeps the stamps of the tick before it. No need is
    // computed past the last tick. Only a fan-out that hands work to
    // other lanes is worth saving: with one rack or one lane every
    // fan-out runs inline, and a pipelined need that a committed
    // span then discards would be one demand evaluation more than
    // the separate pass makes.
    const bool pipelined = n > 1 && pool.jobs() > 1;
    bool need_ready = false;
    while (tick_i < ticks) {
        double now = static_cast<double>(tick_i) * dt;

        if (checkpoint_due(now)) {
            ++ckpt_seq;
            write_fleet_checkpoint(tick_i);
        }

        if (!need_ready)
            computeNeeds(pool, domains, now, need);
        arbitrate(need, feed.availablePowerW(now), alloc);
        const double next = static_cast<double>(tick_i + 1) * dt;
        need_ready =
            pipelined && tick_i + 1 < ticks && !checkpoint_due(next);
        pool.forEachIndex(n, [&](std::size_t r) {
            outs[r] = domains[r]->tick(now, alloc[r]);
            if (need_ready)
                need[r] = rackNeed(*domains[r], next);
        });

        double facility_draw = 0.0;
        for (std::size_t r = 0; r < n; ++r)
            facility_draw += outs[r].sourceDrawW;
        feed.recordDraw(facility_draw, dt);
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
        // early break), so the decline counters show which racks
        // kept the event engine from engaging.
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
        // any rack's tick inputs or the facility supply may change.
        // Because allocations are a pure function of the rack
        // demands and the supply, this is also the next arbitration
        // event: inside the span the dense loop would recompute
        // bitwise-identical allocations every tick, so freezing them
        // at t1 is exact.
        double horizon = std::numeric_limits<double>::infinity();
        std::size_t horizon_rack = 0;
        for (std::size_t r = 0; r < n; ++r) {
            double h = domains[r]->nextEventHorizon(now);
            if (h < horizon) {
                horizon = h;
                // First rack achieving the min (rack order) owns
                // the horizon for decline attribution, also when the
                // feed's edge is the nearer one.
                horizon_rack = r;
            }
            // No horizon lies before `now`, so a rack at `now` holds
            // the minimum and the later racks cannot take it over.
            if (h <= now)
                break;
        }
        horizon = std::min(horizon, feed.nextChangeTime(now));
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

        // Allocations at the span start — the exact FP sequence the
        // dense loop would run at t1, so a declined span leaves
        // nothing to undo (computeDemand and the probe's controller
        // tick are idempotent re-runs of the next dense tick's own
        // work). The tick fan-out above already filled the needs at
        // t1, unless a checkpoint is due there. Static shares ignore
        // the needs, and each probe evaluates its own demand at t1.
        if (!need_ready &&
            options_.policy == BudgetPolicy::Proportional) {
            computeNeeds(pool, domains, t1, need);
            need_ready = true;
        }
        arbitrate(need, feed.availablePowerW(t1), alloc_ff);

        // All-or-nothing probe: commit only when *every* rack
        // accepts the span at its frozen allocation.
        pool.forEachIndex(n, [&](std::size_t r) {
            probe_ok[r] =
                domains[r]->fastForwardCheck(span, alloc_ff[r]);
        });
        if (std::count(probe_ok.begin(), probe_ok.end(), 0) > 0) {
            ++result.ffProbeDeclines;
            ++result.ffDeclinedSpanHist[ffDeclineHistBin(span)];
            for (std::size_t r = 0; r < n; ++r)
                if (!probe_ok[r])
                    declines.noteProbe(r);
            continue;
        }

        for (std::size_t r = 0; r < n; ++r)
            span_draws[r].resize(span);
        // Commits report whether their banks sat idle for the span.
        pool.forEachIndex(n, [&](std::size_t r) {
            banks_idle[r] = domains[r]->fastForwardCommit(
                span, alloc_ff[r], span_draws[r]);
        });
        if (std::count(banks_idle.begin(), banks_idle.end(), 0) == 0)
            ++result.shardKernelSpans;

        // Facility draw: re-sum each span tick in rack order — the
        // same addition order as the dense accumulation above.
        for (std::size_t j = 0; j < span; ++j) {
            double fd = 0.0;
            for (std::size_t r = 0; r < n; ++r)
                fd += span_draws[r][j];
            feed.recordDraw(fd, dt);
            result.facilityPeakDrawW =
                std::max(result.facilityPeakDrawW, fd);
        }

        tick_i += span;
        need_ready = false;
        ++result.macroSpans;
        result.macroSpanTicks += span;
        sampleHealth(static_cast<double>(tick_i - 1) * dt);
    }

    double eff_weighted = 0.0;
    double eff_unweighted = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
        SimResult rr;
        rr.schemeName = racks[r].scheme->name();
        rr.workloadName = racks[r].workload->name();
        rr.workloadPeakClass = racks[r].workload->peakClass();
        domains[r]->finalize(rr);
        feed.finishRack(rr);
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
