#include "core/schemes.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/logging.h"

namespace heb {

namespace {

/** HEB-scheme telemetry handles, registered on first use. */
struct SchemeMetrics
{
    obs::Counter &patLookups = obs::MetricsRegistry::global().counter(
        "core.pat_lookups_total");
    obs::Counter &patHits = obs::MetricsRegistry::global().counter(
        "core.pat_hits_total");
    obs::Counter &patUpdates = obs::MetricsRegistry::global().counter(
        "core.pat_updates_total");
    obs::Counter &smallPeakSlots =
        obs::MetricsRegistry::global().counter(
            "core.small_peak_slots_total");

    static SchemeMetrics &
    get()
    {
        static SchemeMetrics metrics;
        return metrics;
    }
};

} // namespace

const char *
schemeKindName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::BaOnly: return "BaOnly";
      case SchemeKind::BaFirst: return "BaFirst";
      case SchemeKind::ScFirst: return "SCFirst";
      case SchemeKind::HebF: return "HEB-F";
      case SchemeKind::HebS: return "HEB-S";
      case SchemeKind::HebD: return "HEB-D";
    }
    return "?";
}

SchemeKind
schemeKindFromName(const std::string &name)
{
    for (SchemeKind kind : allSchemeKinds()) {
        if (name == schemeKindName(kind))
            return kind;
    }
    fatal("unknown scheme '", name,
          "' (expected BaOnly/BaFirst/SCFirst/HEB-F/HEB-S/HEB-D)");
}

const std::vector<SchemeKind> &
allSchemeKinds()
{
    static const std::vector<SchemeKind> kinds = {
        SchemeKind::BaOnly, SchemeKind::BaFirst, SchemeKind::ScFirst,
        SchemeKind::HebF,   SchemeKind::HebS,    SchemeKind::HebD};
    return kinds;
}

BaOnlyScheme::BaOnlyScheme() = default;

SlotPlan
BaOnlyScheme::planSlot(const SlotSensors &sensors)
{
    SlotPlan plan;
    plan.rLambda = 0.0;
    plan.chargeScFirst = false;
    plan.predictedMismatchW = std::max(
        0.0, sensors.lastSlotPeakW - sensors.lastSlotValleyW);
    plan.predictedClass = PeakClass::Large;
    return plan;
}

void
BaOnlyScheme::finishSlot(const SlotOutcome &)
{
}

BaFirstScheme::BaFirstScheme() = default;

SlotPlan
BaFirstScheme::planSlot(const SlotSensors &sensors)
{
    SlotPlan plan;
    // Battery gets priority; the dispatch spillover moves the load to
    // the SC branch only once the battery cannot serve it.
    plan.rLambda = 0.0;
    plan.chargeScFirst = false;
    plan.predictedMismatchW = std::max(
        0.0, sensors.lastSlotPeakW - sensors.lastSlotValleyW);
    plan.predictedClass = PeakClass::Large;
    return plan;
}

void
BaFirstScheme::finishSlot(const SlotOutcome &)
{
}

ScFirstScheme::ScFirstScheme() = default;

SlotPlan
ScFirstScheme::planSlot(const SlotSensors &sensors)
{
    SlotPlan plan;
    plan.rLambda = 1.0;
    plan.chargeScFirst = true;
    plan.predictedMismatchW = std::max(
        0.0, sensors.lastSlotPeakW - sensors.lastSlotValleyW);
    plan.predictedClass = PeakClass::Small;
    return plan;
}

void
ScFirstScheme::finishSlot(const SlotOutcome &)
{
}

namespace {

MismatchPredictor
makePredictor(const HebSchemeConfig &config)
{
    if (config.holtWintersPrediction)
        return MismatchPredictor::holtWinters(config.hwParams);
    return MismatchPredictor::lastValue();
}

} // namespace

HebScheme::HebScheme(std::string name, HebSchemeConfig config,
                     PowerAllocationTable seeded)
    : name_(std::move(name)), config_(config),
      pat_(std::move(seeded)), predictor_(makePredictor(config))
{
}

SlotPlan
HebScheme::planSlot(const SlotSensors &sensors)
{
    SlotPlan plan;
    plan.chargeScFirst = true; // HEB always absorbs valleys SC-first

    // Emergency-aware conservatism: plan against the envelope of the
    // model forecast and the last slot's observed mismatch, so a
    // still-warming (or momentarily wrong) predictor cannot starve
    // the buffers mid-peak.
    double pm_model = predictor_.predictedMismatchW();
    double pm_naive = std::max(
        0.0, sensors.lastSlotPeakW - sensors.lastSlotValleyW);
    double pm = std::max(pm_model, pm_naive);
    plan.predictedMismatchW = pm;

    if (pm <= config_.smallPeakThresholdW) {
        // Small peaks (paper §5.2): SC-preferential, battery only as
        // the takeover backstop once SCs run dry — which the dispatch
        // spillover provides.
        plan.predictedClass = PeakClass::Small;
        plan.rLambda = 1.0;
        if (obs::metricsOn())
            SchemeMetrics::get().smallPeakSlots.inc();
    } else {
        // Large peaks: joint discharge at the PAT-optimal split.
        plan.predictedClass = PeakClass::Large;
        auto r = pat_.lookup(sensors.scUsableWh, sensors.baUsableWh, pm);
        if (obs::metricsOn()) {
            SchemeMetrics &m = SchemeMetrics::get();
            m.patLookups.inc();
            if (r)
                m.patHits.inc();
        }
        if (r) {
            plan.rLambda = *r;
        } else {
            // Empty table: proportional-to-capability starting point.
            double denom = sensors.scMaxPowerW + sensors.baMaxPowerW;
            plan.rLambda =
                denom > 0.0 ? sensors.scMaxPowerW / denom : 0.5;
        }

        // Battery-protection feasibility band (the stated HEB design
        // goal of shielding batteries from currents they cannot
        // deliver): the battery branch can carry at most its rate
        // limit, so r has a hard floor; and the SC branch must last
        // the slot, so r has an energy ceiling.
        double r_floor = std::clamp(
            (pm - sensors.baMaxPowerW) / pm, 0.0, 1.0);
        double slot_h = sensors.slotSeconds / 3600.0;
        double r_ceil =
            pm * slot_h > 0.0
                ? std::clamp(sensors.scUsableWh / (pm * slot_h), 0.0,
                             1.0)
                : 1.0;
        plan.rLambda = std::clamp(plan.rLambda, r_floor,
                                  std::max(r_floor, r_ceil));
        plan.batteryBasePlanW = pm;
    }

    plan.rLambda = std::clamp(plan.rLambda, 0.0, 1.0);
    lastPlan_ = plan;
    havePlan_ = true;
    return plan;
}

void
HebScheme::finishSlot(const SlotOutcome &outcome)
{
    predictor_.observeSlot(outcome.actualPeakW, outcome.actualValleyW);
    if (!config_.dynamicPatUpdates || !havePlan_)
        return;
    // Only large-peak slots train the table: small peaks bypass it.
    if (lastPlan_.predictedClass != PeakClass::Large)
        return;
    double actual_pm = std::max(
        0.0, outcome.actualPeakW - outcome.actualValleyW);
    pat_.recordOutcome(outcome.scStartWh, outcome.baStartWh, actual_pm,
                       outcome.rLambdaUsed, outcome.scEndWh,
                       outcome.baEndWh);
    if (obs::metricsOn())
        SchemeMetrics::get().patUpdates.inc();
}

void
checkpointSlotPlan(StateCursor &cursor, SlotPlan &plan)
{
    cursor.value(plan.rLambda, "rLambda");
    cursor.flag(plan.chargeScFirst, "chargeScFirst");
    cursor.value(plan.predictedMismatchW, "predictedMismatchW");
    cursor.value(plan.batteryBasePlanW, "batteryBasePlanW");
    bool large = plan.predictedClass == PeakClass::Large;
    cursor.flag(large, "predictedClass");
    plan.predictedClass = large ? PeakClass::Large : PeakClass::Small;
    cursor.value(plan.shedFraction, "shedFraction");
}

void
HebScheme::checkpoint(StateCursor &cursor)
{
    cursor.flag(havePlan_, "havePlan");
    checkpointSlotPlan(cursor, lastPlan_);
    predictor_.checkpoint(cursor);
    // Saving reads the whole table; loading replaces it.
    std::vector<PatEntry> entries;
    if (!cursor.loading())
        entries = pat_.entries();
    cursor.list(entries, "pat entry count", [&](PatEntry &e) {
        cursor.value(e.scWh, "pat scWh");
        cursor.value(e.baWh, "pat baWh");
        cursor.value(e.mismatchW, "pat mismatchW");
        cursor.value(e.rLambda, "pat rLambda");
        cursor.count(e.updates, "pat updates");
    });
    if (cursor.loading())
        pat_.restoreEntries(std::move(entries));
}

std::unique_ptr<ManagementScheme>
makeScheme(SchemeKind kind, const HebSchemeConfig &config,
           const PowerAllocationTable *seeded_pat)
{
    switch (kind) {
      case SchemeKind::BaOnly:
        return std::make_unique<BaOnlyScheme>();
      case SchemeKind::BaFirst:
        return std::make_unique<BaFirstScheme>();
      case SchemeKind::ScFirst:
        return std::make_unique<ScFirstScheme>();
      case SchemeKind::HebF: {
        // Naive prediction, dynamic table.
        HebSchemeConfig c = config;
        c.holtWintersPrediction = false;
        c.dynamicPatUpdates = true;
        PowerAllocationTable pat =
            seeded_pat ? *seeded_pat
                       : PowerAllocationTable(c.patGrid, c.deltaR);
        return std::make_unique<HebScheme>("HEB-F", c, std::move(pat));
      }
      case SchemeKind::HebS: {
        // Good prediction, coarse static table (no refinement).
        HebSchemeConfig c = config;
        c.holtWintersPrediction = true;
        c.dynamicPatUpdates = false;
        PatGrid coarse = c.patGrid;
        coarse.scStepWh *= 4.0;
        coarse.baStepWh *= 4.0;
        coarse.pmStepW *= 4.0;
        c.patGrid = coarse;
        PowerAllocationTable pat =
            seeded_pat ? seeded_pat->requantized(coarse)
                       : PowerAllocationTable(coarse, c.deltaR);
        return std::make_unique<HebScheme>("HEB-S", c, std::move(pat));
      }
      case SchemeKind::HebD: {
        // Good prediction, fine table, online refinement.
        HebSchemeConfig c = config;
        c.holtWintersPrediction = true;
        c.dynamicPatUpdates = true;
        PowerAllocationTable pat =
            seeded_pat ? *seeded_pat
                       : PowerAllocationTable(c.patGrid, c.deltaR);
        return std::make_unique<HebScheme>("HEB-D", c, std::move(pat));
      }
    }
    fatal("makeScheme: unknown scheme kind");
}

} // namespace heb
