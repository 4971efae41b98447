/**
 * @file
 * Graceful-degradation policy for faulted buffer hardware.
 *
 * The Table 2 schemes plan as if the bank they provisioned is the
 * bank they have. Under faults that stops being true: a weak cell
 * cuts the battery's capacity, ESR aging throttles the SC, and the
 * plan's R_lambda split can strand the load on a branch that can no
 * longer carry it.
 *
 * The degradation policy runs after the scheme at each slot boundary
 * and asks the ride-through estimator (core/ride_through.h) the
 * operator's question — "can the bank as *sensed right now* carry
 * this slot's load long enough?" — and if not, walks a fallback
 * ladder:
 *
 *   1. rebalance: try an even R_lambda = 0.5 split;
 *   2. battery-only (R_lambda = 0) and SC-only (R_lambda = 1) — one
 *      branch may be healthy while the other is faulted;
 *   3. proportional load shedding: no split survives, so ask the
 *      domain to shut down just enough servers that the rest ride
 *      through (SlotPlan::shedFraction).
 *
 * Controlled shedding trades throughput for availability; the
 * alternative the Monte-Carlo experiment quantifies is the voltage
 * sag crashing *every* server on the branch (paper Fig. 5).
 */

#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "core/ride_through.h"
#include "core/scheme.h"
#include "esd/energy_storage.h"

namespace heb {

/** Knobs of the degradation policy. */
struct DegradationPolicyParams
{
    /**
     * Ride-through (s) the bank must sustain for a plan to count as
     * safe. The default covers one full control slot.
     */
    double minRideThroughSeconds = 600.0;

    /** Estimator horizon (s); > minRideThroughSeconds. */
    double horizonSeconds = 1200.0;
};

/** What the policy did to the last slot's plan. */
enum class DegradationAction
{
    None,        //!< scheme plan already rode through
    Rebalanced,  //!< moved to an even split
    BatteryOnly, //!< fell back to the battery branch
    ScOnly,      //!< fell back to the SC branch
    Shed,        //!< no split survives; proportional shedding
};

/** Render an action for logs. */
const char *degradationActionName(DegradationAction action);

/** Slot-boundary fallback ladder over the scheme's plan. */
class DegradationPolicy
{
  public:
    using DeviceFactory =
        std::function<std::unique_ptr<EnergyStorageDevice>()>;

    /**
     * @param sc_factory  Fresh SC bank factory (estimator probes).
     * @param ba_factory  Fresh battery bank factory.
     */
    DegradationPolicy(DeviceFactory sc_factory,
                      DeviceFactory ba_factory,
                      DegradationPolicyParams params = {});

    /**
     * Vet @p plan against the sensed bank state; returns the plan to
     * actually run (possibly rebalanced or carrying a shedFraction).
     */
    SlotPlan adapt(SlotPlan plan, const SlotSensors &sensors);

    /** Action taken on the most recent adapt() call. */
    DegradationAction lastAction() const { return lastAction_; }

    /** Slots where the plan was left untouched. */
    std::size_t untouchedSlots() const { return untouched_; }

    /** Slots rescued by an even rebalance. */
    std::size_t rebalancedSlots() const { return rebalanced_; }

    /** Slots that fell back to one branch. */
    std::size_t singleBranchSlots() const { return singleBranch_; }

    /** Slots that requested load shedding. */
    std::size_t shedSlots() const { return shed_; }

    /** Mutable ladder counters, for checkpointing. */
    struct Counters
    {
        DegradationAction lastAction = DegradationAction::None;
        std::size_t untouched = 0;
        std::size_t rebalanced = 0;
        std::size_t singleBranch = 0;
        std::size_t shed = 0;
    };

    /** Snapshot the counters (factories/params are config). */
    Counters counters() const
    {
        return {lastAction_, untouched_, rebalanced_, singleBranch_,
                shed_};
    }

    /** Restore counters previously read with counters(). */
    void restoreCounters(const Counters &counters)
    {
        lastAction_ = counters.lastAction;
        untouched_ = counters.untouched;
        rebalanced_ = counters.rebalanced;
        singleBranch_ = counters.singleBranch;
        shed_ = counters.shed;
    }

  private:
    /** Ride-through estimate for one candidate split. */
    RideThroughEstimate probe(double r_lambda, double sc_soc,
                              double ba_soc, double load_w) const;

    /** Map a sensed usable-energy reading back to a device SoC. */
    double socFromUsableWh(const DeviceFactory &factory,
                           double usable_wh) const;

    DeviceFactory scFactory_;
    DeviceFactory baFactory_;
    DegradationPolicyParams params_;
    DegradationAction lastAction_ = DegradationAction::None;
    std::size_t untouched_ = 0;
    std::size_t rebalanced_ = 0;
    std::size_t singleBranch_ = 0;
    std::size_t shed_ = 0;
};

} // namespace heb
