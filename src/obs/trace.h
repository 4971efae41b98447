/**
 * @file
 * Per-tick / per-slot event trace recorder.
 *
 * The recorder captures fixed-size POD events (no allocation on the
 * record path) into a bounded ring buffer: when the buffer is full
 * the oldest events are overwritten and counted as dropped, so a
 * multi-day run degrades to "most recent window" instead of OOM.
 * Tick-frequency events honour a sampling stride; slot-frequency and
 * rare events are always recorded.
 *
 * Flushing renders the ring oldest-first as JSONL (one self-
 * describing object per line) or CSV via the same schema table that
 * names each event kind's fields.
 *
 * "Oldest-first" is record order. A fleet run on more than one pool
 * lane records racks concurrently, so the order of its lines follows
 * thread scheduling while the set of lines does not: on a 4-core
 * box, 4 of 10 repeated `heb_fleet --racks 2 --hours 2` runs wrote
 * the same 8878 lines as the first in a different order, and at
 * `--jobs 1` the files were byte-identical. Compare multi-lane traces
 * as sorted lines, or record at one lane.
 *
 * Instrumented code reaches the recorder through activeTrace(),
 * which returns nullptr unless telemetry is Full *and* a recorder
 * has been installed — the disabled hot path is one load + branch.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace heb {
namespace obs {

/** Event vocabulary of the simulator trace. */
enum class TraceEventKind : std::uint8_t {
    /** One simulator tick's energy flows (stride-sampled). */
    Tick,
    /** A scheme's plan for the slot beginning now. */
    SlotPlan,
    /** What actually happened over the slot that just closed. */
    SlotClose,
    /** Buffer state sample: SoCs, terminal voltages, split in force. */
    SocSample,
    /** A ride-through estimate was computed. */
    RideThrough,
    /** Servers were shed because the buffers ran dry. */
    Shed,
    /** A shed server was restarted on recovery. */
    Restart,
    /** A quiescent fast-forward macro-tick (summarizes many ticks). */
    Quiescent,
    /** A fault-injection edge: activation or clearance. */
    Fault,
    /** The degradation ladder changed the plan for a slot. */
    Degrade,
};

/** Number of distinct event kinds. */
constexpr std::size_t kTraceEventKinds = 10;

/** Maximum payload fields an event carries. */
constexpr std::size_t kTraceEventFieldMax = 6;

/** One fixed-size trace record. */
struct TraceEvent
{
    /** Simulation time (s). */
    double timeSeconds = 0.0;

    /** What happened. */
    TraceEventKind kind = TraceEventKind::Tick;

    /**
     * Source track (rack index in fleet runs, 0 single-rack),
     * stamped from the recording thread's currentTraceTrack().
     */
    std::uint16_t track = 0;

    /** Payload, named per kind by traceEventFields(). */
    std::array<double, kTraceEventFieldMax> values{};
};

/** Stable wire name of an event kind ("tick", "slot_plan", ...). */
const char *traceEventKindName(TraceEventKind kind);

/** Ordered payload field names of an event kind. */
const std::vector<std::string> &traceEventFields(TraceEventKind kind);

/** Bounded, thread-safe ring of trace events. */
class TraceRecorder
{
  public:
    /**
     * @param capacity     Ring size in events.
     * @param tick_stride  Keep every Nth tick-frequency event.
     */
    explicit TraceRecorder(std::size_t capacity = 1 << 18,
                           std::size_t tick_stride = 1);

    /**
     * Record one event. @p values are matched positionally against
     * traceEventFields(kind); extras are dropped, missing fields
     * read as 0.
     */
    void record(TraceEventKind kind, double time_seconds,
                std::initializer_list<double> values);

    /** Sampling stride for tick-frequency events. */
    std::size_t tickStride() const { return tickStride_; }

    /** Events currently held. */
    std::size_t size() const;

    /** Ring capacity. */
    std::size_t capacity() const { return capacity_; }

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const;

    /** Copy of the held events, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    /** Write the ring as JSON Lines; fatal() when unwritable. */
    void writeJsonl(const std::string &path) const;

    /**
     * writeJsonl without the fatal(): returns false when the path
     * cannot be opened. The abort-flush hook uses this — dying a
     * second time inside a terminate handler would mask the original
     * failure.
     */
    bool tryWriteJsonl(const std::string &path) const;

    /** Write the ring as CSV; fatal() when unwritable. */
    void writeCsv(const std::string &path) const;

    /** Drop all held events and the dropped counter. */
    void clear();

  private:
    mutable std::mutex mu_;
    std::size_t capacity_;
    std::size_t tickStride_;
    std::vector<TraceEvent> ring_;
    std::size_t next_ = 0;
    std::size_t count_ = 0;
    std::uint64_t droppedCount_ = 0;
};

/**
 * The recorder instrumentation writes to, or nullptr when tracing is
 * off (telemetry level below Full, or no recorder installed).
 */
TraceRecorder *activeTrace();

/** Install (or, with nullptr, remove) the process trace recorder. */
void setActiveTrace(TraceRecorder *recorder);

/**
 * Track events recorded by this thread are attributed to. Fleet runs
 * scope a rack's tick inside ScopedTraceTrack so every event a rack
 * emits — including ones recorded deep in the controller, which
 * never sees a rack index — lands on that rack's track. Thread-local
 * because racks tick on pool threads, one rack per thread at a time.
 */
std::uint16_t currentTraceTrack();

/** RAII: set this thread's trace track, restore on scope exit. */
class ScopedTraceTrack
{
  public:
    explicit ScopedTraceTrack(std::uint16_t track);
    ~ScopedTraceTrack();

    ScopedTraceTrack(const ScopedTraceTrack &) = delete;
    ScopedTraceTrack &operator=(const ScopedTraceTrack &) = delete;

  private:
    std::uint16_t previous_;
};

/**
 * Arrange for @p recorder to be flushed to @p path when the process
 * dies unexpectedly: covers exit()/fatal() (atexit) and uncaught
 * exceptions (a chained terminate handler). A clean shutdown should
 * write the trace itself and then uninstall the hook — the abort
 * flush skips paths the run already wrote. Raw abort()/signals are
 * out of scope (atexit does not run).
 *
 * One hook per process; installing again replaces recorder/path.
 */
void installTraceFlushOnAbort(const TraceRecorder *recorder,
                              std::string path);

/** Disarm the abort flush (normal shutdown already flushed). */
void clearTraceFlushOnAbort();

} // namespace obs
} // namespace heb
