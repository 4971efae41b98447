/**
 * @file
 * Scoped phase profiling: `HEB_PROF_SCOPE("esd.dispatch")` at the
 * top of a function (or block) attributes its wall time to a named
 * phase; profileReport() renders the per-run phase-time table.
 *
 * Cost model: each macro site interns its ProfileSite once (a
 * function-local static reference), and the ScopedTimer constructor
 * checks a global flag before touching the clock — with profiling
 * disabled a scope costs one branch and no timestamps, keeping the
 * simulator tick loop clean.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace heb {
namespace obs {

namespace detail {
/** The recording switch; a header variable so reads inline. */
inline std::atomic<bool> g_profiling{false};
} // namespace detail

/** True while scoped timers are recording. */
inline bool
profilingEnabled()
{
    return detail::g_profiling.load(std::memory_order_relaxed);
}

/** Turn scoped-timer recording on or off (process-wide). */
inline void
setProfilingEnabled(bool enabled)
{
    detail::g_profiling.store(enabled, std::memory_order_relaxed);
}

/**
 * Small dense id of the calling thread (0 = first thread to ask,
 * usually main; pool workers get 1..N in spawn order). Samples are
 * tagged with this so pool-parallel fleet runs keep per-thread
 * phase timelines apart instead of interleaving into one track.
 */
unsigned profileThreadRank();

/** True while ScopedTimer also records individual spans. */
bool profileSpanRecordingEnabled();

/**
 * Enable/disable span recording (implies keeping the per-site
 * totals as well). The span ring holds @p capacity spans; once full
 * further spans are counted as dropped, keeping the *earliest*
 * window — a profile wants the run's shape from the start, unlike
 * the trace ring which keeps the freshest tail.
 */
void setProfileSpanRecording(bool enabled,
                             std::size_t capacity = 1 << 16);

/** Accumulated statistics of one named profiling scope. */
class ProfileSite
{
  public:
    explicit ProfileSite(std::string name) : name_(std::move(name)) {}

    /**
     * Find-or-create the site registered under @p name. Returned
     * references stay valid for the process lifetime.
     */
    static ProfileSite &intern(const std::string &name);

    /** Fold in one timed interval. */
    void
    add(std::uint64_t nanoseconds)
    {
        totalNs_.fetch_add(nanoseconds, std::memory_order_relaxed);
        calls_.fetch_add(1, std::memory_order_relaxed);
    }

    const std::string &name() const { return name_; }

    /** Total recorded time (ns). */
    std::uint64_t
    totalNs() const
    {
        return totalNs_.load(std::memory_order_relaxed);
    }

    /** Number of recorded intervals. */
    std::uint64_t
    calls() const
    {
        return calls_.load(std::memory_order_relaxed);
    }

    /** Zero the accumulators. */
    void
    zero()
    {
        totalNs_.store(0, std::memory_order_relaxed);
        calls_.store(0, std::memory_order_relaxed);
    }

  private:
    std::string name_;
    std::atomic<std::uint64_t> totalNs_{0};
    std::atomic<std::uint64_t> calls_{0};
};

namespace detail {
/** Append one finished span to the span ring (profile.cpp). */
void recordProfileSpan(const ProfileSite &site,
                       std::chrono::steady_clock::time_point start,
                       std::chrono::steady_clock::time_point end);
} // namespace detail

/** RAII timer attributing its lifetime to a ProfileSite. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(ProfileSite &site)
        : site_(profilingEnabled() ? &site : nullptr)
    {
        if (site_)
            start_ = std::chrono::steady_clock::now();
    }

    ~ScopedTimer()
    {
        if (!site_)
            return;
        auto end = std::chrono::steady_clock::now();
        auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                end - start_)
                .count();
        site_->add(static_cast<std::uint64_t>(ns));
        if (profileSpanRecordingEnabled())
            detail::recordProfileSpan(*site_, start_, end);
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    ProfileSite *site_;
    std::chrono::steady_clock::time_point start_{};
};

/** Snapshot row of profileSites(). */
struct ProfileEntry
{
    std::string name;
    std::uint64_t totalNs = 0;
    std::uint64_t calls = 0;
};

/** All sites with at least one recorded call, heaviest first. */
std::vector<ProfileEntry> profileSites();

/**
 * One timed interval captured while span recording was on. Times
 * are nanoseconds since the process profile epoch (the first span
 * ring use), so spans from different threads share one clock.
 */
struct ProfileSpan
{
    const ProfileSite *site = nullptr;
    unsigned threadRank = 0;
    std::uint64_t startNs = 0;
    std::uint64_t durationNs = 0;
};

/** Recorded spans, start-ordered. */
std::vector<ProfileSpan> profileSpans();

/** Spans discarded because the span ring was full. */
std::uint64_t profileSpansDropped();

/**
 * Render the phase-time table (phase, calls, total ms, mean us) as
 * printable text. Totals are inclusive: a scope's time also counts
 * in every profiled scope that encloses it, so the rows do not sum
 * to the run's wall time.
 */
std::string profileReport();

/** Zero every site's accumulators (sites stay registered). */
void resetProfiling();

} // namespace obs
} // namespace heb

#define HEB_PROF_CONCAT2(a, b) a##b
#define HEB_PROF_CONCAT(a, b) HEB_PROF_CONCAT2(a, b)

/**
 * Attribute the enclosing scope's wall time to phase @p name (a
 * string literal, conventionally "layer.action").
 */
#define HEB_PROF_SCOPE(name)                                          \
    static ::heb::obs::ProfileSite &HEB_PROF_CONCAT(                  \
        heb_prof_site_, __LINE__) =                                   \
        ::heb::obs::ProfileSite::intern(name);                        \
    ::heb::obs::ScopedTimer HEB_PROF_CONCAT(heb_prof_timer_,          \
                                            __LINE__)(               \
        HEB_PROF_CONCAT(heb_prof_site_, __LINE__))
