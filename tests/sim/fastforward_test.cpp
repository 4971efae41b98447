/**
 * @file
 * Fast-forward equivalence: the event-horizon macro-tick engine must
 * be an invisible optimization. Every scenario here runs twice —
 * dense 1 s ticking and fast-forward — and the two SimResults must
 * serialize to byte-identical JSON under the round-trip-exact
 * (%.17g) witness, i.e. agree to the last ulp of every tick sample.
 */

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "core/schemes.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "sim/simulator.h"
#include "workload/workload_profiles.h"

namespace heb {
namespace {

/** Run (workload, scheme) under @p cfg with fastForward = @p ff. */
std::string
runMode(SimConfig cfg, const std::string &workload, SchemeKind kind,
        bool ff)
{
    cfg.fastForward = ff;
    return simResultToJson(runOne(cfg, workload, kind));
}

/** A 6 h scenario with outages and fault injection. */
SimConfig
stressConfig()
{
    SimConfig cfg;
    cfg.durationSeconds = 6.0 * 3600.0;
    cfg.outages = {{2.0 * 3600.0, 300.0}, {4.0 * 3600.0, 90.0}};
    cfg.faultInjection = true;
    return cfg;
}

TEST(FastForward, BaOnlyEquivalentUnderFaults)
{
    SimConfig cfg = stressConfig();
    EXPECT_EQ(runMode(cfg, "WC", SchemeKind::BaOnly, false),
              runMode(cfg, "WC", SchemeKind::BaOnly, true));
}

TEST(FastForward, ScFirstEquivalentUnderFaults)
{
    SimConfig cfg = stressConfig();
    EXPECT_EQ(runMode(cfg, "WC", SchemeKind::ScFirst, false),
              runMode(cfg, "WC", SchemeKind::ScFirst, true));
}

TEST(FastForward, BaFirstEquivalentUnderFaults)
{
    SimConfig cfg = stressConfig();
    EXPECT_EQ(runMode(cfg, "TS", SchemeKind::BaFirst, false),
              runMode(cfg, "TS", SchemeKind::BaFirst, true));
}

TEST(FastForward, HebDEquivalentUnderFaults)
{
    SimConfig cfg = stressConfig();
    EXPECT_EQ(runMode(cfg, "TS", SchemeKind::HebD, false),
              runMode(cfg, "TS", SchemeKind::HebD, true));
}

TEST(FastForward, HebDEquivalentWithDegradationLadder)
{
    SimConfig cfg = stressConfig();
    cfg.degradationPolicy = true;
    EXPECT_EQ(runMode(cfg, "WS", SchemeKind::HebD, false),
              runMode(cfg, "WS", SchemeKind::HebD, true));
}

TEST(FastForward, SolarEquivalent)
{
    // Solar supply changes every sample, so the horizon collapses to
    // the next tick and the kernel never engages — but the flag must
    // still be a no-op on the results.
    SimConfig cfg;
    cfg.durationSeconds = 6.0 * 3600.0;
    cfg.solarPowered = true;
    EXPECT_EQ(runMode(cfg, "MS", SchemeKind::HebD, false),
              runMode(cfg, "MS", SchemeKind::HebD, true));
}

/**
 * An outage-sparse, jitter-free profile: long flat phases are the
 * regime the fast-forward engine targets, and the kernel must both
 * engage (macro-ticks actually taken) and stay exact.
 */
ProfileParams
calmProfile()
{
    ProfileParams p;
    p.name = "CALM";
    p.peakClass = PeakClass::Large;
    // Both phases fit under the default 260 W budget (~252 W and
    // ~201 W for six 30/70 W servers at the high DVFS level): the
    // engine only fast-forwards quiescent spans, so a profile that
    // browns the cluster out would never let the kernel engage.
    p.highUtil = 0.30;
    p.lowUtil = 0.05;
    p.highPhaseS = 900.0;
    p.lowPhaseS = 4500.0;
    p.jitter = 0.0;
    p.diurnalDepth = 0.0;
    p.serverStagger = 0.0;
    return p;
}

TEST(FastForward, EngagesAndStaysExactOnCalmWorkload)
{
    SimConfig cfg;
    cfg.durationSeconds = 12.0 * 3600.0;
    cfg.outages = {{6.0 * 3600.0, 120.0}};
    SyntheticWorkload workload(calmProfile(), cfg.seed);

    cfg.fastForward = false;
    auto dense_scheme = makeScheme(SchemeKind::ScFirst);
    std::string dense = simResultToJson(
        Simulator(cfg).run(workload, *dense_scheme));

    // Trace the fast-forward run to prove macro-ticks were taken:
    // equivalence alone would also pass if the kernel always bailed.
    obs::setTelemetryLevel(obs::TelemetryLevel::Full);
    obs::TraceRecorder trace(1 << 16);
    obs::setActiveTrace(&trace);
    cfg.fastForward = true;
    auto ff_scheme = makeScheme(SchemeKind::ScFirst);
    std::string ff = simResultToJson(
        Simulator(cfg).run(workload, *ff_scheme));
    obs::setActiveTrace(nullptr);
    obs::setTelemetryLevel(obs::TelemetryLevel::Off);

    EXPECT_EQ(dense, ff);
    int quiescent = 0;
    for (const auto &ev : trace.snapshot())
        quiescent += ev.kind == obs::TraceEventKind::Quiescent;
    EXPECT_GT(quiescent, 0)
        << "kernel never engaged on a jitter-free workload";
}

/**
 * The outage-sparse rack grid the engine is sized for: 128 servers on
 * the calm profile under 45 W/server, banks scaled to the rack, fault
 * injection (fault seed 1, no ATS transfer failures) and two
 * sub-minute outages late in the 6 h span. BaOnly, SCFirst and HEB-D
 * on the seeded PAT must each be exact on a one-rack fleet (what
 * Simulator::run builds), dense vs event, and the engine's coverage is
 * pinned tick for tick: the counts are deterministic, so a horizon or
 * probe that stops engaging fails here rather than in a timing ratio.
 */
TEST(FastForward, OutageSparseGridExactAndCovered)
{
    SimConfig cfg;
    cfg.numServers = 128;
    cfg.budgetW = 45.0 * 128.0;
    cfg.scEnergyWh *= 128.0 / 6.0;
    cfg.baEnergyWh *= 128.0 / 6.0;
    cfg.durationSeconds = 6.0 * 3600.0;
    cfg.faultInjection = true;
    cfg.faultSeed = 1;
    cfg.faultPlan.atsFailuresPerDay = 0.0;
    cfg.outages = {{0.90 * cfg.durationSeconds, 45.0},
                   {0.96 * cfg.durationSeconds, 60.0}};
    HebSchemeConfig scheme_cfg;
    PowerAllocationTable pat = buildSeededPat(cfg, scheme_cfg);
    SyntheticWorkload workload(calmProfile(), cfg.seed);

    struct Cell
    {
        SchemeKind kind;
        unsigned long macroSpans, macroSpanTicks, denseTicks;
    };
    // Macro-spans, ticks inside them and dense ticks, of 21600.
    const Cell cells[] = {{SchemeKind::BaOnly, 38, 19402, 2198},
                          {SchemeKind::ScFirst, 43, 21452, 148},
                          {SchemeKind::HebD, 43, 21452, 148}};
    for (const Cell &cell : cells) {
        SCOPED_TRACE(schemeKindName(cell.kind));
        auto run = [&](FleetMode mode) {
            auto scheme = makeScheme(cell.kind, scheme_cfg, &pat);
            return FleetSimulator(cfg, cfg.budgetW,
                                  FleetOptions{BudgetPolicy::Static,
                                               mode, true})
                .run({RackSpec{"rack0", &workload, scheme.get()}});
        };
        FleetResult dense = run(FleetMode::Dense);
        FleetResult event = run(FleetMode::Event);
        ASSERT_EQ(dense.racks.size(), 1u);
        ASSERT_EQ(event.racks.size(), 1u);
        EXPECT_EQ(simResultToJson(dense.racks[0]),
                  simResultToJson(event.racks[0]));
        EXPECT_EQ(dense.denseTicks, 21600ul);
        EXPECT_EQ(event.macroSpans, cell.macroSpans);
        EXPECT_EQ(event.macroSpanTicks, cell.macroSpanTicks);
        EXPECT_EQ(event.denseTicks, cell.denseTicks);
    }
}

TEST(FastForward, PartialTrailingTickIsSimulated)
{
    // A duration that is not a whole multiple of the tick used to be
    // silently truncated by the duration/dt cast; the trailing
    // partial interval now runs as one full tick.
    SimConfig cfg;
    cfg.durationSeconds = 3605.5;
    SimResult r = runOne(cfg, "WC", SchemeKind::ScFirst);
    EXPECT_EQ(r.demandW.size(), 3606u);
    EXPECT_EQ(r.supplyW.size(), 3606u);
    EXPECT_EQ(r.unservedW.size(), 3606u);
}

} // namespace
} // namespace heb
