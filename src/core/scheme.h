/**
 * @file
 * Power-management scheme interface (paper Table 2).
 *
 * A scheme makes one decision per control slot: what fraction R_λ of
 * the mismatch load to place on the SC branch, and which buffer to
 * charge first during valleys. The six evaluated schemes — BaOnly,
 * BaFirst, SCFirst, HEB-F, HEB-S and HEB-D — are all implementations
 * of this interface, so the simulator can sweep them uniformly.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "util/state_cursor.h"
#include "workload/workload.h"

namespace heb {

/** Sensor snapshot handed to the scheme at each slot boundary. */
struct SlotSensors
{
    /** Absolute time of the slot start (s). */
    double timeSeconds = 0.0;

    /** Usable SC energy (ΔSC in the paper), Wh. */
    double scUsableWh = 0.0;

    /** Usable battery energy (ΔBA), Wh. */
    double baUsableWh = 0.0;

    /** SC branch deliverable power over the slot (W). */
    double scMaxPowerW = 0.0;

    /** Battery branch deliverable power over the slot (W). */
    double baMaxPowerW = 0.0;

    /** Actual demand peak of the slot that just ended (W). */
    double lastSlotPeakW = 0.0;

    /** Actual demand valley of the slot that just ended (W). */
    double lastSlotValleyW = 0.0;

    /** Provisioned supply budget for the next slot (W). */
    double budgetW = 0.0;

    /** Control-slot length (s). */
    double slotSeconds = 600.0;
};

/** The scheme's decision for the coming slot. */
struct SlotPlan
{
    /** Fraction of mismatch power served from the SC branch. */
    double rLambda = 0.0;

    /** Charge SCs before batteries during valleys. */
    bool chargeScFirst = false;

    /** Predicted mismatch ΔPM used for the decision (W). */
    double predictedMismatchW = 0.0;

    /**
     * When positive, dispatch runs battery-as-base against this
     * planned mismatch (HEB's bulk/transient split); non-positive
     * selects plain proportional splitting (the priority schemes).
     */
    double batteryBasePlanW = -1.0;

    /** Small/large classification of the predicted peak. */
    PeakClass predictedClass = PeakClass::Small;

    /**
     * Fraction of servers the degradation policy asks the domain to
     * shed this slot, in [0, 1]. 0 means full service; schemes never
     * set this themselves — the controller's policy fills it in when
     * the surviving buffer capability cannot carry the load.
     */
    double shedFraction = 0.0;
};

/** What actually happened during the slot (for learning schemes). */
struct SlotOutcome
{
    double scStartWh = 0.0;
    double baStartWh = 0.0;
    double scEndWh = 0.0;
    double baEndWh = 0.0;
    double actualPeakW = 0.0;
    double actualValleyW = 0.0;
    double rLambdaUsed = 0.0;
};

/** One of the Table 2 power-management schemes. */
class ManagementScheme
{
  public:
    virtual ~ManagementScheme() = default;

    /** Scheme name as in Table 2 ("BaOnly", "HEB-D", ...). */
    virtual const std::string &name() const = 0;

    /** Decide the plan for the slot beginning now. */
    virtual SlotPlan planSlot(const SlotSensors &sensors) = 0;

    /** Learn from the slot that just ended. */
    virtual void finishSlot(const SlotOutcome &outcome) = 0;

    /** True when the scheme uses the SC branch at all. */
    virtual bool usesHybridBuffers() const { return true; }

    /**
     * Describe the scheme's mutable learning state (last plan,
     * predictor history, PAT entries) to @p cursor, which saves it
     * or loads it back into an identically-configured scheme.
     * Stateless schemes describe nothing.
     */
    virtual void checkpoint(StateCursor &cursor) { (void)cursor; }
};

/** Describe @p plan's fields to @p cursor, in either direction. */
void checkpointSlotPlan(StateCursor &cursor, SlotPlan &plan);

/** Scheme selector mirroring Table 2. */
enum class SchemeKind { BaOnly, BaFirst, ScFirst, HebF, HebS, HebD };

/** Render a scheme kind as its Table 2 name. */
const char *schemeKindName(SchemeKind kind);

/** The kind whose Table 2 name is @p name; fatal() on any other. */
SchemeKind schemeKindFromName(const std::string &name);

/** All six kinds in Table 2 order. */
const std::vector<SchemeKind> &allSchemeKinds();

} // namespace heb
