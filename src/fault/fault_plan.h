/**
 * @file
 * Fault-event taxonomy and seeded fault-plan generation.
 *
 * HEB's availability story (paper Fig. 5 voltage-sag crash, §6
 * ride-through) only means something in a world where hardware
 * actually fails. A FaultPlan is a deterministic, time-ordered list
 * of the failures the prototype risked: battery strings losing a
 * cell, SC banks aging, converters tripping offline, ATS transfers
 * hanging open, and IPDU telemetry dropping out or jittering.
 *
 * Plans are generated from a SplitMix64 stream per fault kind, so
 *  - the same (params, duration, seed) triple always yields the same
 *    plan, bit for bit, on any platform and at any thread count; and
 *  - changing one kind's rate never shifts another kind's event
 *    times (each kind forks its own child stream).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace heb {
namespace fault {

/** The failure modes the injector understands. */
enum class FaultKind
{
    /** One battery string loses a cell: capacity + ESR derate. */
    BatteryWeakCell,

    /** SC bank ESR grows (electrolyte dry-out aging). */
    ScEsrAging,

    /** Buffer-path converter trips offline until its restart delay. */
    ConverterTrip,

    /**
     * ATS transfer failure: the transfer switch sticks open and the
     * facility feed supplies nothing for the event duration (the
     * fleet adds it to the utility grid as an outage window).
     */
    AtsTransferFailure,

    /** IPDU telemetry freezes at the last good reading. */
    SensorDropout,

    /** IPDU telemetry picks up multiplicative jitter. */
    SensorJitter,
};

/** Number of distinct fault kinds (array-sizing companion). */
constexpr std::size_t kFaultKindCount = 6;

/** Render a fault kind for logs and JSON artifacts. */
const char *faultKindName(FaultKind kind);

/** One scheduled fault. */
struct FaultEvent
{
    FaultKind kind = FaultKind::ConverterTrip;

    /** Absolute onset time (s). */
    double startSeconds = 0.0;

    /**
     * Active window (s). Derates (weak cell, ESR aging) are
     * permanent and carry 0 here; trips/gaps/sensor faults clear at
     * start + duration.
     */
    double durationSeconds = 0.0;

    /**
     * Kind-specific magnitude: capacity factor for a weak cell, ESR
     * growth factor for aging, jitter sigma for SensorJitter; unused
     * (0) for the purely temporal kinds.
     */
    double magnitude = 0.0;

    /** Secondary magnitude (weak cell: resistance growth factor). */
    double secondary = 0.0;

    /** Target device index where relevant (weak cell: string). */
    std::size_t target = 0;

    /** One-line human-readable description for fault logs. */
    std::string describe() const;
};

/**
 * Stochastic fault-plan knobs. Rates are expected events per
 * simulated day; a rate of 0 disables the kind entirely.
 *
 * The defaults describe a stressed-but-plausible rack: roughly one
 * supply interruption and one converter trip per day, a weak cell
 * every other day, and telemetry glitches a few times a day — dense
 * enough that a two-day Monte-Carlo scenario almost always exercises
 * several kinds.
 */
struct FaultPlanParams
{
    double weakCellsPerDay = 0.5;
    double weakCellCapacityFactor = 0.7;
    double weakCellResistanceFactor = 1.6;

    double scAgingEventsPerDay = 0.25;
    double scEsrGrowthFactor = 1.4;

    double converterTripsPerDay = 1.0;
    double converterRestartSeconds = 180.0;

    double atsFailuresPerDay = 1.0;
    double atsGapSeconds = 45.0;

    double sensorDropoutsPerDay = 2.0;
    double sensorDropoutSeconds = 900.0;

    double sensorJitterEventsPerDay = 2.0;
    double sensorJitterSeconds = 1800.0;
    double sensorJitterMagnitude = 0.15;
};

/** A time-ordered fault schedule. */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /**
     * Draw a plan from @p params over @p duration_seconds. Event
     * times are exponential inter-arrivals per kind, each kind on
     * its own SplitMix64 child stream of @p seed.
     */
    static FaultPlan generate(const FaultPlanParams &params,
                              double duration_seconds,
                              std::uint64_t seed);

    /** Append one event (tests / hand-written scenarios). */
    void add(FaultEvent event);

    /** Events ordered by start time. */
    const std::vector<FaultEvent> &events() const { return events_; }

    /** Number of scheduled events. */
    std::size_t size() const { return events_.size(); }

    /** Events of one kind, in time order. */
    std::vector<FaultEvent> ofKind(FaultKind kind) const;

    /**
     * Event-horizon query for the fast-forward engine: the earliest
     * event edge strictly after @p now_seconds — an onset for every
     * kind, plus the window end (start + duration) for windowed
     * kinds, since sensor/trip windows clearing also changes tick
     * behavior. Returns +infinity when nothing is left.
     */
    double nextEventAfter(double now_seconds) const;

  private:
    /** Stable sort by start time after mutation. */
    void sortByStart();

    std::vector<FaultEvent> events_;
};

} // namespace fault
} // namespace heb
