/**
 * @file
 * Power Allocation Table (PAT) — paper §5.2/§5.3, Fig. 10.
 *
 * The PAT maps (available SC energy, available battery energy,
 * expected mismatch power) to the server ratio R_λ that should be
 * powered from the SC branch. Keys are quantized to a coarse grid so
 * the table stays small; lookups fall back to the nearest neighbour
 * in normalized key space ("Similar()" in the paper's pseudo code).
 * At slot end the controller either adds a new (rounded) entry or
 * nudges the existing entry's R_λ by ±Δr depending on whether the SC
 * or battery side drained faster than expected.
 *
 * A profiled seed entry may hold its key now and compute its R_λ on
 * first read (seed() with a race). Copies of a table share such a
 * pending ratio, so it is computed once per seeded table whichever
 * copy or thread reads it first; reading it never writes the table.
 */

#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace heb {

/** One PAT entry. */
struct PatEntry
{
    /** Quantized available SC energy (Wh). */
    double scWh = 0.0;
    /** Quantized available battery energy (Wh). */
    double baWh = 0.0;
    /** Quantized mismatch power (W). */
    double mismatchW = 0.0;
    /** Fraction of servers assigned to the SC branch. */
    double rLambda = 0.5;
    /** Number of times this entry was refined. */
    unsigned long updates = 0;
};

/** Quantization grid of the table keys. */
struct PatGrid
{
    /** SC-energy grid step (Wh). */
    double scStepWh = 5.0;
    /** Battery-energy grid step (Wh). */
    double baStepWh = 10.0;
    /** Mismatch-power grid step (W). */
    double pmStepW = 20.0;
};

/** The dynamic power allocation table. */
class PowerAllocationTable
{
  public:
    /**
     * Construct an empty table.
     *
     * @param grid     Key quantization steps.
     * @param delta_r  R_λ refinement step (paper default 1 %).
     */
    explicit PowerAllocationTable(PatGrid grid = {},
                                  double delta_r = 0.01);

    /** Number of entries. */
    std::size_t size() const { return entries_.size(); }

    /**
     * Every entry, in table order, with its R_λ resolved: reading the
     * whole table computes every pending seed ratio.
     */
    std::vector<PatEntry> entries() const;

    /**
     * Replace the entry list wholesale (checkpoint restore); no
     * ratio stays pending. Grid and Δr are construction-time config
     * and stay as built.
     */
    void restoreEntries(std::vector<PatEntry> entries);

    /**
     * Exact lookup on the quantized key; empty when no entry matches
     * (lines 2-6 of Fig. 10).
     */
    std::optional<double> lookupExact(double sc_wh, double ba_wh,
                                      double mismatch_w) const;

    /**
     * Nearest-neighbour lookup in normalized key space (Similar(),
     * line 8). Empty only when the table is empty.
     */
    std::optional<double> lookupSimilar(double sc_wh, double ba_wh,
                                        double mismatch_w) const;

    /** Exact lookup, then similar; empty only when the table is empty. */
    std::optional<double> lookup(double sc_wh, double ba_wh,
                                 double mismatch_w) const;

    /**
     * Insert a profiled seed entry (pilot run, §5.2). A later seed of
     * the same quantized key replaces its ratio in place.
     */
    void seed(double sc_wh, double ba_wh, double mismatch_w,
              double r_lambda);

    /**
     * Insert a seed entry whose ratio @p race computes when the entry
     * is first read: an exact or nearest-neighbour lookup that lands
     * on it, a recordOutcome nudge, a requantized() cell averaging it,
     * or entries(). The key takes its place now, so lookups see the
     * same keys in the same order as an eager seed.
     */
    void seed(double sc_wh, double ba_wh, double mismatch_w,
              std::function<double()> race);

    /**
     * End-of-slot learning (lines 12-23 of Fig. 10).
     *
     * @param sc_initial_wh  SC energy at slot start.
     * @param ba_initial_wh  Battery energy at slot start.
     * @param actual_pm_w    Actual mismatch power of the slot.
     * @param r_lambda       Ratio used during the slot.
     * @param sc_end_wh      SC energy at slot end.
     * @param ba_end_wh      Battery energy at slot end.
     */
    void recordOutcome(double sc_initial_wh, double ba_initial_wh,
                       double actual_pm_w, double r_lambda,
                       double sc_end_wh, double ba_end_wh);

    /**
     * Re-quantize this table onto a (typically coarser) grid,
     * averaging R_λ across entries landing in the same cell, as a
     * running mean in table order. Used to derive HEB-S's "limited
     * profiling information" table from the full profile. Each cell
     * averages when first read, so a pending seed ratio it covers is
     * computed only then.
     */
    PowerAllocationTable requantized(PatGrid coarser_grid) const;

    /** Refinement step Δr. */
    double deltaR() const { return deltaR_; }

    /** Grid in use. */
    const PatGrid &grid() const { return grid_; }

    /**
     * Persist the table to a CSV file so the controller's learned
     * allocation survives restarts (the paper's hControl
     * "self-optimizes its performance over the lifetime").
     */
    void saveCsv(const std::string &path) const;

    /**
     * Load a table previously written by saveCsv. Grid and Δr come
     * from @p grid / @p delta_r (the file stores only entries).
     */
    static PowerAllocationTable loadCsv(const std::string &path,
                                        PatGrid grid = {},
                                        double delta_r = 0.01);

  private:
    /** A seed ratio computed once, on first read (defined in pat.cpp). */
    struct Pending;

    /** Round a key to its grid. */
    double quantize(double value, double step) const;

    /** Index of the entry exactly matching the quantized key. */
    std::optional<std::size_t> findExact(double sc_q, double ba_q,
                                         double pm_q) const;

    /** Put the ratio of a seed on its key, keeping the key's slot. */
    void place(double sc_wh, double ba_wh, double mismatch_w,
               double r_lambda, std::shared_ptr<const Pending> pending);

    /** R_λ of entry @p i, computing a pending ratio on first read. */
    double ratio(std::size_t i) const;

    PatGrid grid_;
    double deltaR_;
    std::vector<PatEntry> entries_;
    /** Per entry, the shared ratio still to compute, or null. */
    std::vector<std::shared_ptr<const Pending>> pending_;
};

} // namespace heb
