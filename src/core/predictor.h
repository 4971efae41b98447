/**
 * @file
 * Power-demand prediction for the HEB controller (paper §5.2).
 *
 * Per control slot the controller predicts the next slot's peak and
 * valley power; their difference is the expected mismatch ΔPM the
 * buffers must cover. The paper uses Holt-Winters triple exponential
 * smoothing; HEB-F's "prediction" is simply last slot's values, so a
 * naive predictor is provided for that ablation.
 */

#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "util/state_cursor.h"

namespace heb {

/** One-series forecaster: observe a value per slot, predict the next. */
class SeriesPredictor
{
  public:
    virtual ~SeriesPredictor() = default;

    /** Predictor name for logs. */
    virtual const std::string &name() const = 0;

    /** Fold in the value observed for the slot that just ended. */
    virtual void observe(double value) = 0;

    /** Forecast for the next slot. */
    virtual double predict() const = 0;

    /** Drop all state. */
    virtual void reset() = 0;

    /**
     * Describe the predictor's mutable state to @p cursor, which
     * saves it or loads it back in place.
     */
    virtual void checkpoint(StateCursor &cursor) = 0;
};

/** Repeats the last observation (HEB-F's naive scheme). */
class LastValuePredictor : public SeriesPredictor
{
  public:
    LastValuePredictor();

    const std::string &name() const override { return name_; }
    void observe(double value) override;
    double predict() const override { return last_; }
    void reset() override { last_ = 0.0; }
    void checkpoint(StateCursor &cursor) override;

  private:
    std::string name_ = "last-value";
    double last_ = 0.0;
};

/** Knobs of the Holt-Winters forecaster. */
struct HoltWintersParams
{
    /** Level smoothing factor. */
    double alpha = 0.35;

    /** Trend smoothing factor. */
    double beta = 0.10;

    /** Seasonal smoothing factor. */
    double gamma = 0.25;

    /**
     * Season length in slots (one day of 10-minute slots = 144).
     * Zero disables the seasonal term (double exponential only).
     */
    std::size_t seasonLength = 144;

    /** Damping applied to the trend in the forecast. */
    double trendDamping = 0.9;
};

/**
 * Additive Holt-Winters (triple exponential) forecaster.
 *
 * Runs as double exponential smoothing until a full season has been
 * observed, then switches on the additive seasonal component.
 */
class HoltWintersPredictor : public SeriesPredictor
{
  public:
    explicit HoltWintersPredictor(HoltWintersParams params = {});

    const std::string &name() const override { return name_; }
    void observe(double value) override;
    double predict() const override;
    void reset() override;
    void checkpoint(StateCursor &cursor) override;

    /** Smoothed level. */
    double level() const { return level_; }

    /** Smoothed trend. */
    double trend() const { return trend_; }

    /** True once the seasonal term is active. */
    bool seasonalActive() const;

  private:
    std::string name_ = "holt-winters";
    HoltWintersParams params_;
    double level_ = 0.0;
    double trend_ = 0.0;
    std::vector<double> seasonal_;
    std::vector<double> warmup_;
    std::size_t slot_ = 0;
    bool primed_ = false;
};

/**
 * The controller's mismatch forecaster: paired peak and valley
 * predictors (the paper "maintains two groups of series data").
 */
class MismatchPredictor
{
  public:
    /** Own both underlying predictors. */
    MismatchPredictor(std::unique_ptr<SeriesPredictor> peak,
                      std::unique_ptr<SeriesPredictor> valley);

    /** Build a Holt-Winters pair. */
    static MismatchPredictor holtWinters(HoltWintersParams params = {});

    /** Build a last-value pair (HEB-F). */
    static MismatchPredictor lastValue();

    /** Record the slot that just ended. */
    void observeSlot(double peak_w, double valley_w);

    /** Predicted peak power of the next slot (W). */
    double predictedPeakW() const;

    /** Predicted valley power of the next slot (W). */
    double predictedValleyW() const;

    /** Predicted mismatch ΔPM = peak - valley, floored at 0 (W). */
    double predictedMismatchW() const;

    /** Describe both underlying predictors' state to @p cursor. */
    void checkpoint(StateCursor &cursor);

  private:
    std::unique_ptr<SeriesPredictor> peak_;
    std::unique_ptr<SeriesPredictor> valley_;
};

} // namespace heb
