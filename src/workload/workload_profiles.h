/**
 * @file
 * The eight evaluated workloads (paper Table 1) as synthetic
 * utilization generators.
 *
 * We cannot run HiBench/CloudSuite against real Hadoop clusters here,
 * but the controller only consumes the induced power-demand shapes.
 * Each profile reproduces its application's characteristic phase
 * structure; following the paper's methodology, the small-peak group
 * runs at the low DVFS level and the large-peak group at the high
 * level, yielding the two general peak shapes the evaluation sweeps.
 *
 *  PR  PageRank (Mahout)      iterative supersteps w/ sync gaps
 *  WC  WordCount (Hadoop)     map-heavy plateau, reduce tail
 *  DA  Data Analysis          moderate oscillation
 *  WS  Web Search             diurnal + request noise
 *  MS  Media Streaming        smooth plateaus, session ramps
 *  DFS Dfsioe (HDFS)          long I/O bursts (large peaks)
 *  HB  Hivebench              long high phases, short dips (large)
 *  TS  Terasort               sustained sort phases (large)
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "workload/workload.h"

namespace heb {

/** Shape parameters of one synthetic profile. */
struct ProfileParams
{
    std::string name;
    PeakClass peakClass = PeakClass::Small;

    /** Utilization during the busy phase. */
    double highUtil = 0.9;

    /** Utilization during the quiet phase. */
    double lowUtil = 0.3;

    /** Busy-phase length (s). */
    double highPhaseS = 120.0;

    /** Quiet-phase length (s). */
    double lowPhaseS = 120.0;

    /** Additive deterministic jitter amplitude on utilization. */
    double jitter = 0.05;

    /** Diurnal modulation depth (0 = none). */
    double diurnalDepth = 0.0;

    /** Per-server phase stagger as a fraction of the period. */
    double serverStagger = 0.15;
};

/** A phase-structured synthetic workload. */
class SyntheticWorkload : public Workload
{
  public:
    /** Construct from shape parameters and a seed for stagger. */
    SyntheticWorkload(ProfileParams params, std::uint64_t seed = 1);

    const std::string &name() const override { return params_.name; }
    PeakClass peakClass() const override { return params_.peakClass; }
    double utilization(std::size_t server_index,
                       double time_seconds) const override;
    void utilizations(double time_seconds, std::span<double> out,
                      UtilizationCache &cache) const override;
    double nextChangeTime(double now_seconds,
                          std::size_t num_servers) const override;

    /** Shape parameters in use. */
    const ProfileParams &params() const { return params_; }

  private:
    ProfileParams params_;
    std::uint64_t seed_;
};

/** Factory for the paper's eight profiles, by abbreviation. */
std::unique_ptr<SyntheticWorkload>
makeWorkload(const std::string &abbreviation, std::uint64_t seed = 1);

/** All eight abbreviations in Table 1 order. */
const std::vector<std::string> &allWorkloadNames();

/** The small-peak subset (PR, WC, DA, WS, MS). */
const std::vector<std::string> &smallPeakWorkloadNames();

/** The large-peak subset (DFS, HB, TS). */
const std::vector<std::string> &largePeakWorkloadNames();

} // namespace heb
