/**
 * @file
 * One-rack event-engine pins: the macro-span coverage of the
 * outage-sparse grid, tick for tick, and the trailing partial tick.
 * Dense ≡ event equivalence itself is differential_test.cpp's.
 */

#include <gtest/gtest.h>

#include "core/schemes.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "workload/workload_profiles.h"
#include "calm_fleet.h"

namespace heb {
namespace {

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
    cfg.scaleServers(128);
    cfg.budgetW = 45.0 * 128.0;
    cfg.durationSeconds = 6.0 * 3600.0;
    cfg.faultInjection = true;
    cfg.faultSeed = 1;
    cfg.faultPlan.atsFailuresPerDay = 0.0;
    cfg.outages = {{0.90 * cfg.durationSeconds, 45.0},
                   {0.96 * cfg.durationSeconds, 60.0}};
    HebSchemeConfig scheme_cfg;
    PowerAllocationTable pat = buildSeededPat(cfg, scheme_cfg);
    SyntheticWorkload workload(test::calmProfile("CALM", 0.30), cfg.seed);

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
