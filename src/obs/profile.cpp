#include "obs/profile.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "util/table_printer.h"

namespace heb {
namespace obs {

namespace {

std::atomic<bool> g_spanRecording{false};

struct SiteRegistry
{
    std::mutex mu;
    std::map<std::string, std::unique_ptr<ProfileSite>> sites;
};

SiteRegistry &
siteRegistry()
{
    static SiteRegistry registry;
    return registry;
}

struct SpanRing
{
    std::mutex mu;
    std::vector<ProfileSpan> spans;
    std::size_t capacity = 1 << 16;
    std::uint64_t dropped = 0;
};

SpanRing &
spanRing()
{
    static SpanRing ring;
    return ring;
}

/** Shared zero point of every span timestamp. */
std::chrono::steady_clock::time_point
profileEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

} // namespace

unsigned
profileThreadRank()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned rank =
        next.fetch_add(1, std::memory_order_relaxed);
    return rank;
}

bool
profileSpanRecordingEnabled()
{
    return g_spanRecording.load(std::memory_order_relaxed);
}

void
setProfileSpanRecording(bool enabled, std::size_t capacity)
{
    {
        SpanRing &ring = spanRing();
        std::lock_guard<std::mutex> lock(ring.mu);
        ring.capacity = std::max<std::size_t>(1, capacity);
    }
    if (enabled)
        profileEpoch(); // pin the epoch before the first span
    g_spanRecording.store(enabled, std::memory_order_relaxed);
}

namespace detail {

void
recordProfileSpan(const ProfileSite &site,
                  std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point end)
{
    ProfileSpan span;
    span.site = &site;
    span.threadRank = profileThreadRank();
    auto sinceEpoch = [](std::chrono::steady_clock::time_point t) {
        auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t - profileEpoch())
                .count();
        return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
    };
    span.startNs = sinceEpoch(start);
    span.durationNs = sinceEpoch(end) - span.startNs;

    SpanRing &ring = spanRing();
    std::lock_guard<std::mutex> lock(ring.mu);
    if (ring.spans.size() >= ring.capacity) {
        ++ring.dropped;
        return;
    }
    ring.spans.push_back(span);
}

} // namespace detail

std::vector<ProfileSpan>
profileSpans()
{
    SpanRing &ring = spanRing();
    std::vector<ProfileSpan> out;
    {
        std::lock_guard<std::mutex> lock(ring.mu);
        out = ring.spans;
    }
    std::sort(out.begin(), out.end(),
              [](const ProfileSpan &a, const ProfileSpan &b) {
                  return a.startNs < b.startNs;
              });
    return out;
}

std::uint64_t
profileSpansDropped()
{
    SpanRing &ring = spanRing();
    std::lock_guard<std::mutex> lock(ring.mu);
    return ring.dropped;
}

ProfileSite &
ProfileSite::intern(const std::string &name)
{
    SiteRegistry &registry = siteRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    auto &slot = registry.sites[name];
    if (!slot)
        slot = std::make_unique<ProfileSite>(name);
    return *slot;
}

std::vector<ProfileEntry>
profileSites()
{
    SiteRegistry &registry = siteRegistry();
    std::vector<ProfileEntry> out;
    {
        std::lock_guard<std::mutex> lock(registry.mu);
        for (const auto &[name, site] : registry.sites) {
            if (site->calls() == 0)
                continue;
            out.push_back({name, site->totalNs(), site->calls()});
        }
    }
    std::sort(out.begin(), out.end(),
              [](const ProfileEntry &a, const ProfileEntry &b) {
                  return a.totalNs > b.totalNs;
              });
    return out;
}

std::string
profileReport()
{
    std::vector<ProfileEntry> entries = profileSites();
    TablePrinter table({"phase", "calls", "total(ms)", "mean(us)"});
    for (const ProfileEntry &e : entries) {
        double total_ns = static_cast<double>(e.totalNs);
        double calls = static_cast<double>(e.calls);
        table.addRow({e.name, std::to_string(e.calls),
                      TablePrinter::num(total_ns / 1e6, 3),
                      TablePrinter::num(total_ns / calls / 1e3, 3)});
    }
    if (entries.empty())
        table.addRow({"(no profiled phases)", "0", "0", "0"});
    return table.toString();
}

void
resetProfiling()
{
    {
        SiteRegistry &registry = siteRegistry();
        std::lock_guard<std::mutex> lock(registry.mu);
        for (auto &[_, site] : registry.sites)
            site->zero();
    }
    SpanRing &ring = spanRing();
    std::lock_guard<std::mutex> lock(ring.mu);
    ring.spans.clear();
    ring.dropped = 0;
}

} // namespace obs
} // namespace heb
