/**
 * @file
 * Workload abstraction: per-server utilization over time.
 *
 * The HEB controller never sees jobs or requests — only the power
 * demand they induce. A Workload therefore answers exactly one
 * question: how busy is server s at time t? (in [0, 1]).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace heb {

/** The paper's Table 1 taxonomy of peak shapes. */
enum class PeakClass { Small, Large };

/** Render a peak class for logs/tables. */
const char *peakClassName(PeakClass peak_class);

class Workload;

/**
 * Caller-owned memo for Workload::utilizations(): the per-server terms
 * that do not move from one tick to the next. SyntheticWorkload keeps
 * each server's stagger offset here, and each server's jitter for the
 * 5 s cell it evaluated last. A cache serves the one workload that
 * filled it; handed another workload or another server count, it
 * refills. It must not outlive that workload, whose address is its
 * key. It holds no simulation state, so checkpoints skip it.
 */
struct UtilizationCache
{
    const Workload *owner = nullptr; //!< workload that filled it
    std::vector<double> stagger;     //!< per-server stagger offset (s)
    std::vector<double> jitter;      //!< per-server jitter in `cell`
    std::uint64_t cell = 0;          //!< jitter-cell key `jitter` holds
    bool cellValid = false;          //!< whether `jitter` is filled
};

/** A utilization generator. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Workload name (paper abbreviation, e.g. "PR"). */
    virtual const std::string &name() const = 0;

    /** Small-peaks or large-peaks family (Table 1). */
    virtual PeakClass peakClass() const = 0;

    /**
     * Utilization of server @p server_index at absolute time
     * @p time_seconds, in [0, 1]. Must be deterministic.
     */
    virtual double utilization(std::size_t server_index,
                               double time_seconds) const = 0;

    /**
     * Batched utilization(): out[s] = utilization(s, @p time_seconds)
     * for every s in [0, out.size()), bit for bit. Subclasses
     * override it to share the server-independent work of one
     * timestamp across the servers and to keep terms that outlive
     * one tick in @p cache; calls may go back in time.
     */
    virtual void
    utilizations(double time_seconds, std::span<double> out,
                 UtilizationCache &cache) const
    {
        (void)cache;
        for (std::size_t s = 0; s < out.size(); ++s)
            out[s] = utilization(s, time_seconds);
    }

    /**
     * Event-horizon query for the fast-forward engine: the earliest
     * time T > @p now_seconds at which utilization() may change for
     * any server in [0, @p num_servers). The contract is bitwise:
     * for every server s and every t in [now_seconds, T),
     * utilization(s, t) must return exactly the same double as
     * utilization(s, now_seconds). Returning @p now_seconds itself
     * declares "no constancy guarantee" and keeps the simulator on
     * the dense per-tick path — the safe default for workloads with
     * continuous shapes.
     */
    virtual double nextChangeTime(double now_seconds,
                                  std::size_t num_servers) const
    {
        (void)num_servers;
        return now_seconds;
    }
};

} // namespace heb
