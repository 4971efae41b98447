/**
 * @file
 * Pilot-run profiler seeding the initial PAT (paper §5.2, Fig. 6).
 *
 * The paper obtains the initial allocation-table entries "via
 * profiling in a pilot scheme like Figure 6": discharge the hybrid
 * bank against a constant mismatch at each candidate split and keep
 * the split that survives longest. The profiler replays exactly that
 * experiment across a grid of (SC level, battery level, mismatch)
 * scenarios, using factory callbacks so each trial starts from fresh
 * device state.
 *
 * Seeding is cyclic: each trial alternates peaks at the scenario
 * mismatch with recharging valleys, which matches how the buffers
 * actually operate. It picks the ratio with the least unserved energy
 * by branch-and-bound: candidates still race in order, but a race
 * stops as soon as its running sum reaches the score it would have to
 * beat, and no race steps the valley after its final peak. Both cuts
 * are exact, so the chosen ratio is the one a full race of every
 * candidate would pick.
 *
 * Seeding is also lazy. A table key is the usable energy of fresh
 * banks at the pilot SoCs plus the pilot power, so it needs no race;
 * a cell races its candidates only when a run first reads its ratio,
 * and copies of the table share that result (DESIGN.md §8). A run
 * that reads few cells pays for few races.
 */

#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/pat.h"
#include "esd/energy_storage.h"

namespace heb {

/** Factory producing a fresh, fully-charged device/bank. */
using EsdFactory =
    std::function<std::unique_ptr<EnergyStorageDevice>()>;

/** Result of one discharge race. */
struct RuntimeProfile
{
    /** Candidate R_λ values swept. */
    std::vector<double> ratios;

    /** Survival time (s) for each candidate. */
    std::vector<double> runtimeSeconds;

    /** Index of the longest-surviving candidate. */
    std::size_t bestIndex = 0;

    /** Convenience: the winning ratio. */
    double bestRatio() const { return ratios[bestIndex]; }

    /** Convenience: the winning runtime (s). */
    double bestRuntime() const { return runtimeSeconds[bestIndex]; }
};

/** Knobs of the profiling sweep. */
struct ProfilerConfig
{
    /** Number of candidate ratios (0..1 inclusive). */
    std::size_t ratioSteps = 11;

    /** Simulation tick during races (s). */
    double tickSeconds = 1.0;

    /** Give up after this long (s). */
    double horizonSeconds = 4.0 * 3600.0;

    /** Peak phase length in the cyclic trial (s). */
    double peakDurationS = 900.0;

    /** Valley phase length in the cyclic trial (s). */
    double valleyDurationS = 3600.0;

    /** Recharge power offered during valleys (W). */
    double valleyChargeW = 40.0;

    /** Number of peak/valley cycles per trial. */
    std::size_t cycles = 3;
};

/** The pilot profiler. */
class BufferProfiler
{
  public:
    /**
     * @param sc_factory  Builds a fresh SC bank.
     * @param ba_factory  Builds a fresh battery bank.
     */
    BufferProfiler(EsdFactory sc_factory, EsdFactory ba_factory,
                   ProfilerConfig config = {});

    /**
     * How long can (sc, ba) with the given initial SoCs jointly
     * sustain @p mismatch_w when @p r_lambda of it rides the SC
     * branch? (One bar of Fig. 6.)
     */
    double dischargeRuntime(double sc_soc, double ba_soc,
                            double mismatch_w, double r_lambda) const;

    /**
     * Sweep all candidate ratios for one scenario (a Fig. 6 curve).
     */
    RuntimeProfile profileScenario(double sc_soc, double ba_soc,
                                   double mismatch_w) const;

    /**
     * Unserved energy (Wh) across the configured peak/valley cycles
     * when @p r_lambda of the mismatch rides the SC branch — the
     * deployment-shaped objective (lower is better). The valley after
     * the last peak is not stepped: nothing scores after it.
     */
    double cyclicUnservedWh(double sc_soc, double ba_soc,
                            double mismatch_w, double r_lambda) const;

    /**
     * Ratio minimizing cyclicUnservedWh for one scenario, with ties
     * broken toward the SC side (cheaper wear). Candidates run from
     * r = 1 down; one wins only if it scores below the best so far
     * minus 1e-9, so each race stops once its running sum reaches
     * that mark. Every candidate still enters a race.
     */
    double bestCyclicRatio(double sc_soc, double ba_soc,
                           double mismatch_w) const;

    /**
     * Seed @p table with the best cyclic ratio of every (soc, soc,
     * power) combination in the given grids. Every key is placed now;
     * each ratio is raced when the table first reads it, on a copy of
     * this profiler, so the factories must not capture anything that
     * may die before the table does.
     */
    void seedTable(PowerAllocationTable &table,
                   const std::vector<double> &sc_socs,
                   const std::vector<double> &ba_socs,
                   const std::vector<double> &mismatch_watts) const;

  private:
    /**
     * cyclicUnservedWh, stopped early once the running sum reaches
     * @p stop_at_wh; a stopped race returns its partial sum, which is
     * already >= @p stop_at_wh.
     */
    double boundedCyclicUnservedWh(double sc_soc, double ba_soc,
                                   double mismatch_w, double r_lambda,
                                   double stop_at_wh) const;

    EsdFactory scFactory_;
    EsdFactory baFactory_;
    ProfilerConfig config_;
};

} // namespace heb
