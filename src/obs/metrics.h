/**
 * @file
 * Process-wide metrics registry: counters, gauges and log-scale
 * histograms with O(1), allocation-free hot-path updates.
 *
 * Instrumented code registers a metric once (typically in a
 * constructor or behind a function-local static) and keeps the
 * returned handle; updates are relaxed atomic operations guarded by a
 * single global telemetry switch, so a disabled build costs one
 * predictable branch per update. Handles stay valid for the process
 * lifetime — the registry never removes a metric, and reset() zeroes
 * values without invalidating anything.
 *
 * Naming convention: `<layer>.<subject>_<unit>`, e.g.
 * `sim.unserved_wh`, `esd.sc-bank.discharge_wh`,
 * `core.pat_updates_total`.
 *
 * Metrics may carry label sets (`rack`, `scheme`, `fault_kind`, ...):
 * every (name, labels) pair is an independent time series inside the
 * family named by `name`. Labeled registration pays one extra map
 * lookup; the update path is identical to unlabeled metrics.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace heb {
namespace obs {

/**
 * Label set of one metric: key/value pairs, sorted by key at
 * registration so (name, labels) identity and export order are
 * deterministic regardless of call-site spelling.
 */
using MetricLabels =
    std::vector<std::pair<std::string, std::string>>;

/** Render labels as the canonical `{k="v",...}` suffix ("" when empty). */
std::string renderLabels(const MetricLabels &labels);

/**
 * Global telemetry gate (the "enum gate" of the tick path): Off
 * disables every metric update and trace record; Metrics enables
 * metric updates only; Full additionally lets the active trace
 * recorder capture events.
 */
enum class TelemetryLevel { Off, Metrics, Full };

namespace detail {
/** The process-wide level; a header variable so reads inline. */
inline std::atomic<TelemetryLevel> g_telemetryLevel{TelemetryLevel::Off};
} // namespace detail

/** Current process-wide telemetry level (relaxed read). */
inline TelemetryLevel
telemetryLevel()
{
    return detail::g_telemetryLevel.load(std::memory_order_relaxed);
}

/** Set the process-wide telemetry level. */
inline void
setTelemetryLevel(TelemetryLevel level)
{
    detail::g_telemetryLevel.store(level, std::memory_order_relaxed);
}

/** True when metric updates are recorded at all. */
inline bool
metricsOn()
{
    return telemetryLevel() != TelemetryLevel::Off;
}

/** Monotonically increasing sum. */
class Counter
{
  public:
    explicit Counter(std::string name, MetricLabels labels = {})
        : name_(std::move(name)), labels_(std::move(labels))
    {
    }

    /** Add @p delta (ignored when telemetry is off). */
    void
    add(double delta)
    {
        if (!metricsOn())
            return;
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    /** Add one. */
    void inc() { add(1.0); }

    /** Current sum. */
    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    const std::string &name() const { return name_; }

    /** Label set (sorted by key; empty for unlabeled metrics). */
    const MetricLabels &labels() const { return labels_; }

    /** Zero the counter (registry reset). */
    void zero() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::string name_;
    MetricLabels labels_;
    std::atomic<double> value_{0.0};
};

/** Last-written instantaneous value. */
class Gauge
{
  public:
    explicit Gauge(std::string name, MetricLabels labels = {})
        : name_(std::move(name)), labels_(std::move(labels))
    {
    }

    /** Record the current reading (ignored when telemetry is off). */
    void
    set(double value)
    {
        if (!metricsOn())
            return;
        value_.store(value, std::memory_order_relaxed);
    }

    /** Last recorded reading. */
    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    const std::string &name() const { return name_; }

    /** Label set (sorted by key; empty for unlabeled metrics). */
    const MetricLabels &labels() const { return labels_; }

    void zero() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::string name_;
    MetricLabels labels_;
    std::atomic<double> value_{0.0};
};

/** Shape of a histogram's fixed log-scale bucket ladder. */
struct HistogramSpec
{
    /** Upper bound of the first finite bucket. */
    double firstBoundary = 1.0;

    /** Multiplicative step between consecutive boundaries (> 1). */
    double growth = 2.0;

    /**
     * Number of finite boundaries. Buckets are: one underflow below
     * the first boundary, one per interval between consecutive
     * boundaries, and one overflow at or above the last boundary —
     * boundaryCount + 1 buckets total.
     */
    std::size_t boundaryCount = 20;
};

/**
 * Fixed-bucket log-scale histogram.
 *
 * Bucket 0 (underflow) counts every value below the first boundary —
 * including zero, negatives and -inf. Bucket i (1-based) counts
 * boundary[i-1] <= v < boundary[i]. The final bucket (overflow)
 * counts everything at or above the last boundary, +inf and NaN.
 * Boundaries are fixed at registration, so record() never allocates.
 */
class Histogram
{
  public:
    Histogram(std::string name, HistogramSpec spec,
              MetricLabels labels = {});

    /** Record one observation. */
    void record(double value);

    /** Number of observations. */
    std::uint64_t count() const;

    /** Sum of observations (NaN observations contribute nothing). */
    double sum() const { return sum_.load(std::memory_order_relaxed); }

    /** Mean of observations (0 when empty). */
    double mean() const;

    /** Upper bounds of the finite buckets. */
    const std::vector<double> &boundaries() const { return boundaries_; }

    /** Count in bucket @p index (0 = underflow, last = overflow). */
    std::uint64_t bucketCount(std::size_t index) const;

    /** Total number of buckets including underflow and overflow. */
    std::size_t bucketTotal() const { return buckets_.size(); }

    /** Index of the bucket @p value falls into. */
    std::size_t bucketIndex(double value) const;

    const std::string &name() const { return name_; }

    /** Label set (sorted by key; empty for unlabeled metrics). */
    const MetricLabels &labels() const { return labels_; }

    void zero();

  private:
    std::string name_;
    MetricLabels labels_;
    std::vector<double> boundaries_;
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<double> sum_{0.0};
};

/** The process-wide named-metric registry. */
class MetricsRegistry
{
  public:
    /** The singleton shared by all instrumentation. */
    static MetricsRegistry &global();

    /**
     * Find-or-create a counter. Re-registering a name returns the
     * existing handle, so per-run objects (pools, controllers) can
     * register in their constructors without leaking metrics.
     */
    Counter &counter(const std::string &name);

    /** Find-or-create a labeled counter in the family @p name. */
    Counter &counter(const std::string &name,
                     const MetricLabels &labels);

    /** Find-or-create a gauge. */
    Gauge &gauge(const std::string &name);

    /** Find-or-create a labeled gauge in the family @p name. */
    Gauge &gauge(const std::string &name,
                 const MetricLabels &labels);

    /** Find-or-create a histogram (spec applies on first creation). */
    Histogram &histogram(const std::string &name,
                         HistogramSpec spec = {});

    /** Find-or-create a labeled histogram in the family @p name. */
    Histogram &histogram(const std::string &name,
                         const MetricLabels &labels,
                         HistogramSpec spec = {});

    /** Number of registered metrics across all kinds. */
    std::size_t size() const;

    /**
     * Sorted identities of every registered metric: the name for
     * unlabeled metrics, `name{k="v",...}` for labeled ones.
     */
    std::vector<std::string> names() const;

    /** Serialize every metric to a JSON object string. */
    std::string toJson() const;

    /** Write toJson() to @p path; fatal() when unwritable. */
    void writeJson(const std::string &path) const;

    /** Zero every metric value; registrations survive. */
    void reset();

    /**
     * Visit every metric under the registry lock, grouped by kind,
     * each kind ordered name-major then label-minor. The exporters
     * (JSON dump, Prometheus exposition) are built on this.
     */
    template <typename CounterFn, typename GaugeFn,
              typename HistogramFn>
    void
    visit(CounterFn on_counter, GaugeFn on_gauge,
          HistogramFn on_histogram) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &[_, c] : counters_)
            on_counter(*c);
        for (const auto &[_, g] : gauges_)
            on_gauge(*g);
        for (const auto &[_, h] : histograms_)
            on_histogram(*h);
    }

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  private:
    mutable std::mutex mu_;
    // Keyed on name + '\x1f' + canonical labels: all series of a
    // family are contiguous, and families never interleave (0x1f
    // sorts below every printable character).
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace obs
} // namespace heb
