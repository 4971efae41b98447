#include "workload/workload_profiles.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "util/logging.h"
#include "util/units.h"

namespace heb {

const char *
peakClassName(PeakClass peak_class)
{
    return peak_class == PeakClass::Small ? "small" : "large";
}

namespace {

/** Cheap deterministic hash -> [0,1) used for stagger and jitter. */
double
hash01(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return static_cast<double>(x >> 11) / 9007199254740992.0;
}

/** Server @p s's stagger into its period (s): fixed per server. */
double
staggerOffset(const ProfileParams &p, std::uint64_t seed, std::size_t s,
              double period)
{
    return p.serverStagger * period *
           hash01(seed * 1315423911ULL + s * 2654435761ULL);
}

/** Offset into the period at @p t of a server staggered by @p stagger. */
double
phaseAt(double t, double stagger, double period)
{
    double phase = fastFmod(t + stagger, period);
    if (phase < 0.0)
        phase += period;
    return phase;
}

/** The server-independent terms of utilization() at one time. */
struct TimeTerms
{
    double period = 0.0;
    std::uint64_t jitterCell = 0; //!< hashed 5 s jitter-grid index
    double diurnal = 0.0;
};

TimeTerms
timeTerms(const ProfileParams &p, double t)
{
    TimeTerms tt;
    tt.period = p.highPhaseS + p.lowPhaseS;
    tt.jitterCell = static_cast<std::uint64_t>(t / 5.0) * 15485863ULL;
    // Optional diurnal envelope (web search / streaming).
    if (p.diurnalDepth > 0.0) {
        double hour = fastFmod(t / kSecondsPerHour, kHoursPerDay);
        tt.diurnal = p.diurnalDepth *
                     std::sin(2.0 * std::numbers::pi * (hour - 9.0) /
                              kHoursPerDay);
    }
    return tt;
}

/** Deterministic jitter: a hash of the (server, 5 s cell) pair. */
double
jitterTerm(const ProfileParams &p, std::uint64_t seed, std::size_t s,
           std::uint64_t jitter_cell)
{
    return (hash01(seed ^ (s * 7919ULL) ^ jitter_cell) - 0.5) * 2.0 *
           p.jitter;
}

/** Utilization at @p phase with the server's jitter and the envelope. */
double
levelAt(const ProfileParams &p, double phase, double jitter,
        double diurnal)
{
    double base = phase < p.highPhaseS ? p.highUtil : p.lowUtil;
    return std::clamp(base + jitter + diurnal, 0.0, 1.0);
}

} // namespace

SyntheticWorkload::SyntheticWorkload(ProfileParams params,
                                     std::uint64_t seed)
    : params_(std::move(params)), seed_(seed)
{
    if (params_.highUtil < params_.lowUtil)
        fatal("Workload ", params_.name, ": highUtil below lowUtil");
    if (params_.highPhaseS <= 0.0 || params_.lowPhaseS <= 0.0)
        fatal("Workload ", params_.name, ": phases must be positive");
}

double
SyntheticWorkload::utilization(std::size_t server_index,
                               double time_seconds) const
{
    const TimeTerms tt = timeTerms(params_, time_seconds);
    double stagger =
        staggerOffset(params_, seed_, server_index, tt.period);
    return levelAt(params_, phaseAt(time_seconds, stagger, tt.period),
                   jitterTerm(params_, seed_, server_index,
                              tt.jitterCell),
                   tt.diurnal);
}

void
SyntheticWorkload::utilizations(double time_seconds,
                                std::span<double> out,
                                UtilizationCache &cache) const
{
    const std::size_t n = out.size();
    const TimeTerms tt = timeTerms(params_, time_seconds);
    // The stagger is a pure function of (seed, s) and the jitter of
    // (seed, s, cell): both are evaluated with utilization()'s own
    // expressions, so the cached values are its values bit for bit.
    if (cache.owner != this || cache.stagger.size() != n) {
        cache.owner = this;
        cache.stagger.resize(n);
        for (std::size_t s = 0; s < n; ++s)
            cache.stagger[s] = staggerOffset(params_, seed_, s, tt.period);
        cache.jitter.resize(n);
        cache.cellValid = false;
    }
    // The cell key is the cell index times an odd constant, so no two
    // cells share one; any move, backwards included, refills.
    if (!cache.cellValid || cache.cell != tt.jitterCell) {
        for (std::size_t s = 0; s < n; ++s)
            cache.jitter[s] = jitterTerm(params_, seed_, s, tt.jitterCell);
        cache.cell = tt.jitterCell;
        cache.cellValid = true;
    }
    for (std::size_t s = 0; s < n; ++s) {
        out[s] = levelAt(params_,
                         phaseAt(time_seconds, cache.stagger[s], tt.period),
                         cache.jitter[s], tt.diurnal);
    }
}

double
SyntheticWorkload::nextChangeTime(double now_seconds,
                                  std::size_t num_servers) const
{
    // The diurnal envelope is a continuous sine: there is no flat
    // segment, so no constancy can be promised.
    if (params_.diurnalDepth > 0.0)
        return now_seconds;

    double next = std::numeric_limits<double>::infinity();

    // Jitter re-hashes on the 5 s grid; the next grid boundary is
    // the first instant any server's hash input can change.
    if (params_.jitter > 0.0) {
        auto tick = static_cast<std::uint64_t>(now_seconds / 5.0);
        next = std::min(next,
                        static_cast<double>(tick + 1) * 5.0);
    }

    // Per-server phase edge: within a period the base level flips
    // once (high -> low) and once at the wrap. The phase offset is
    // the same staggered fmod utilization() evaluates, so the edge
    // estimate tracks the real comparison; the simulator's endpoint
    // guard absorbs any last-ulp disagreement. Without stagger every
    // server's offset is the same signed zero (0 * period * hash), so
    // they all share one edge and server 0 answers for the rack.
    double period = params_.highPhaseS + params_.lowPhaseS;
    const std::size_t distinct =
        params_.serverStagger == 0.0 ? std::min<std::size_t>(num_servers, 1)
                                     : num_servers;
    for (std::size_t s = 0; s < distinct; ++s) {
        double phase =
            phaseAt(now_seconds, staggerOffset(params_, seed_, s, period),
                    period);
        double edge =
            (phase < params_.highPhaseS ? params_.highPhaseS
                                        : period) -
            phase;
        if (edge <= 0.0)
            edge = period - phase; // sitting exactly on the flip
        next = std::min(next, now_seconds + edge);
    }
    return next;
}

std::unique_ptr<SyntheticWorkload>
makeWorkload(const std::string &abbreviation, std::uint64_t seed)
{
    ProfileParams p;
    p.name = abbreviation;

    if (abbreviation == "PR") {
        // PageRank: short iterative supersteps with sync gaps.
        p.peakClass = PeakClass::Small;
        p.highUtil = 0.80;
        p.lowUtil = 0.25;
        p.highPhaseS = 90.0;
        p.lowPhaseS = 60.0;
        p.jitter = 0.06;
    } else if (abbreviation == "WC") {
        // WordCount: map plateau, short reduce/shuffle dip.
        p.peakClass = PeakClass::Small;
        p.highUtil = 0.75;
        p.lowUtil = 0.30;
        p.highPhaseS = 150.0;
        p.lowPhaseS = 90.0;
        p.jitter = 0.05;
    } else if (abbreviation == "DA") {
        // CloudSuite data analysis: moderate oscillation.
        p.peakClass = PeakClass::Small;
        p.highUtil = 0.80;
        p.lowUtil = 0.32;
        p.highPhaseS = 120.0;
        p.lowPhaseS = 120.0;
        p.jitter = 0.07;
    } else if (abbreviation == "WS") {
        // Web search: request-noise around a diurnal baseline.
        p.peakClass = PeakClass::Small;
        p.highUtil = 0.72;
        p.lowUtil = 0.36;
        p.highPhaseS = 60.0;
        p.lowPhaseS = 60.0;
        p.jitter = 0.10;
        p.diurnalDepth = 0.12;
    } else if (abbreviation == "MS") {
        // Media streaming: smooth plateaus, session ramps.
        p.peakClass = PeakClass::Small;
        p.highUtil = 0.76;
        p.lowUtil = 0.36;
        p.highPhaseS = 300.0;
        p.lowPhaseS = 180.0;
        p.jitter = 0.03;
        p.diurnalDepth = 0.10;
    } else if (abbreviation == "DFS") {
        // Dfsioe: long HDFS I/O bursts -> large, wide peaks. The
        // large-peak group's duty cycle keeps *average* demand under
        // the prototype budget so scheme quality, not structural
        // under-supply, decides the metrics.
        p.peakClass = PeakClass::Large;
        p.highUtil = 0.95;
        p.lowUtil = 0.15;
        p.highPhaseS = 900.0;
        p.lowPhaseS = 3900.0; // 4800 s period divides the day
        p.jitter = 0.04;
    } else if (abbreviation == "HB") {
        // Hivebench: long high query phases with quiet stretches.
        p.peakClass = PeakClass::Large;
        p.highUtil = 0.90;
        p.lowUtil = 0.15;
        p.highPhaseS = 1080.0;
        p.lowPhaseS = 4320.0;
        p.jitter = 0.05;
    } else if (abbreviation == "TS") {
        // Terasort: sustained sort/shuffle at near-full load.
        p.peakClass = PeakClass::Large;
        p.highUtil = 0.97;
        p.lowUtil = 0.15;
        p.highPhaseS = 900.0;
        p.lowPhaseS = 4500.0;
        p.jitter = 0.03;
    } else {
        fatal("Unknown workload abbreviation '", abbreviation, "'");
    }

    return std::make_unique<SyntheticWorkload>(std::move(p), seed);
}

const std::vector<std::string> &
allWorkloadNames()
{
    static const std::vector<std::string> names = {
        "PR", "WC", "DA", "WS", "MS", "DFS", "HB", "TS"};
    return names;
}

const std::vector<std::string> &
smallPeakWorkloadNames()
{
    static const std::vector<std::string> names = {"PR", "WC", "DA",
                                                   "WS", "MS"};
    return names;
}

const std::vector<std::string> &
largePeakWorkloadNames()
{
    static const std::vector<std::string> names = {"DFS", "HB", "TS"};
    return names;
}

} // namespace heb
