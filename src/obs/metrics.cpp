#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "obs/json.h"
#include "util/atomic_file.h"
#include "util/logging.h"

namespace heb {
namespace obs {

namespace {

/**
 * Canonicalize a label set: sorted by key, duplicate keys fatal.
 * Sorting at registration makes (name, labels) identity independent
 * of call-site ordering.
 */
MetricLabels
canonicalLabels(const MetricLabels &labels)
{
    MetricLabels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 1; i < sorted.size(); ++i) {
        if (sorted[i].first == sorted[i - 1].first) {
            fatal("duplicate metric label key '", sorted[i].first,
                  "'");
        }
    }
    return sorted;
}

/** Registry map key: name + 0x1f + canonical label rendering. */
std::string
seriesKey(const std::string &name, const MetricLabels &sorted)
{
    if (sorted.empty())
        return name;
    std::string key = name;
    key += '\x1f';
    key += renderLabels(sorted);
    return key;
}

/** Identity shown in names()/toJson(): name or name{k="v",...}. */
template <typename Metric>
std::string
metricIdentity(const Metric &metric)
{
    return metric.name() + renderLabels(metric.labels());
}

} // namespace

std::string
renderLabels(const MetricLabels &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto &[key, value] : labels) {
        if (!first)
            out += ',';
        first = false;
        out += key;
        out += "=\"";
        for (char c : value) {
            switch (c) {
              case '\\': out += "\\\\"; break;
              case '"': out += "\\\""; break;
              case '\n': out += "\\n"; break;
              default: out += c;
            }
        }
        out += '"';
    }
    out += '}';
    return out;
}

Histogram::Histogram(std::string name, HistogramSpec spec,
                     MetricLabels labels)
    : name_(std::move(name)), labels_(std::move(labels)),
      buckets_(spec.boundaryCount + 1)
{
    if (spec.firstBoundary <= 0.0 || spec.growth <= 1.0 ||
        spec.boundaryCount == 0) {
        fatal("Histogram '", name_,
              "': firstBoundary must be > 0, growth > 1, and at "
              "least one boundary");
    }
    boundaries_.reserve(spec.boundaryCount);
    double b = spec.firstBoundary;
    for (std::size_t i = 0; i < spec.boundaryCount; ++i) {
        boundaries_.push_back(b);
        b *= spec.growth;
    }
}

std::size_t
Histogram::bucketIndex(double value) const
{
    if (std::isnan(value))
        return buckets_.size() - 1;
    if (value < boundaries_.front())
        return 0;
    if (value >= boundaries_.back())
        return buckets_.size() - 1;
    auto it = std::upper_bound(boundaries_.begin(),
                               boundaries_.end(), value);
    return static_cast<std::size_t>(it - boundaries_.begin());
}

void
Histogram::record(double value)
{
    if (!metricsOn())
        return;
    buckets_[bucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    if (std::isfinite(value))
        sum_.fetch_add(value, std::memory_order_relaxed);
}

std::uint64_t
Histogram::count() const
{
    std::uint64_t acc = 0;
    for (const auto &b : buckets_)
        acc += b.load(std::memory_order_relaxed);
    return acc;
}

double
Histogram::mean() const
{
    std::uint64_t n = count();
    return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

std::uint64_t
Histogram::bucketCount(std::size_t index) const
{
    if (index >= buckets_.size())
        panic("Histogram bucket index out of range");
    return buckets_[index].load(std::memory_order_relaxed);
}

void
Histogram::zero()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>(name);
    return *slot;
}

Counter &
MetricsRegistry::counter(const std::string &name,
                         const MetricLabels &labels)
{
    MetricLabels sorted = canonicalLabels(labels);
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = counters_[seriesKey(name, sorted)];
    if (!slot)
        slot = std::make_unique<Counter>(name, std::move(sorted));
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>(name);
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name,
                       const MetricLabels &labels)
{
    MetricLabels sorted = canonicalLabels(labels);
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = gauges_[seriesKey(name, sorted)];
    if (!slot)
        slot = std::make_unique<Gauge>(name, std::move(sorted));
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           HistogramSpec spec)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>(name, spec);
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           const MetricLabels &labels,
                           HistogramSpec spec)
{
    MetricLabels sorted = canonicalLabels(labels);
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = histograms_[seriesKey(name, sorted)];
    if (!slot) {
        slot = std::make_unique<Histogram>(name, spec,
                                           std::move(sorted));
    }
    return *slot;
}

std::size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_.size() + gauges_.size() + histograms_.size();
}

std::vector<std::string>
MetricsRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(counters_.size() + gauges_.size() +
                histograms_.size());
    for (const auto &[_, c] : counters_)
        out.push_back(metricIdentity(*c));
    for (const auto &[_, g] : gauges_)
        out.push_back(metricIdentity(*g));
    for (const auto &[_, h] : histograms_)
        out.push_back(metricIdentity(*h));
    std::sort(out.begin(), out.end());
    return out;
}

std::string
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[_, c] : counters_) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, metricIdentity(*c));
        out += ": ";
        appendJsonNumber(out, c->value());
    }
    out += "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto &[_, g] : gauges_) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, metricIdentity(*g));
        out += ": ";
        appendJsonNumber(out, g->value());
    }
    out += "\n  },\n  \"histograms\": {";
    first = true;
    for (const auto &[_, h] : histograms_) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, metricIdentity(*h));
        out += ": {\"count\": ";
        appendJsonNumber(out, static_cast<double>(h->count()));
        out += ", \"sum\": ";
        appendJsonNumber(out, h->sum());
        out += ", \"buckets\": [";
        for (std::size_t i = 0; i < h->bucketTotal(); ++i) {
            if (i > 0)
                out += ", ";
            out += "{\"le\": ";
            if (i + 1 < h->bucketTotal())
                appendJsonNumber(
                    out, i < h->boundaries().size()
                             ? h->boundaries()[i]
                             : h->boundaries().back());
            else
                out += "null"; // +inf overflow bucket
            out += ", \"count\": ";
            appendJsonNumber(
                out, static_cast<double>(h->bucketCount(i)));
            out += '}';
        }
        out += "]}";
    }
    out += "\n  }\n}\n";
    return out;
}

void
MetricsRegistry::writeJson(const std::string &path) const
{
    if (!writeFileAtomic(path, toJson()))
        fatal("cannot write metrics output '", path, "'");
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[_, c] : counters_)
        c->zero();
    for (auto &[_, g] : gauges_)
        g->zero();
    for (auto &[_, h] : histograms_)
        h->zero();
}

} // namespace obs
} // namespace heb
