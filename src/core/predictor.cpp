#include "core/predictor.h"

#include <algorithm>

#include "util/logging.h"

namespace heb {

LastValuePredictor::LastValuePredictor() = default;

void
LastValuePredictor::observe(double value)
{
    last_ = value;
}

void
LastValuePredictor::checkpoint(StateCursor &cursor)
{
    cursor.value(last_, "last-value");
}

HoltWintersPredictor::HoltWintersPredictor(HoltWintersParams params)
    : params_(params)
{
    auto check = [](double v, const char *what) {
        if (v < 0.0 || v > 1.0)
            fatal("HoltWinters ", what, " must be in [0,1], got ", v);
    };
    check(params_.alpha, "alpha");
    check(params_.beta, "beta");
    check(params_.gamma, "gamma");
    if (params_.seasonLength > 0)
        seasonal_.assign(params_.seasonLength, 0.0);
}

void
HoltWintersPredictor::reset()
{
    level_ = 0.0;
    trend_ = 0.0;
    slot_ = 0;
    primed_ = false;
    warmup_.clear();
    if (params_.seasonLength > 0)
        seasonal_.assign(params_.seasonLength, 0.0);
}

bool
HoltWintersPredictor::seasonalActive() const
{
    return params_.seasonLength > 0 && slot_ >= params_.seasonLength;
}

void
HoltWintersPredictor::observe(double value)
{
    std::size_t len = params_.seasonLength;

    if (!primed_) {
        level_ = value;
        trend_ = 0.0;
        primed_ = true;
        if (len > 0)
            warmup_.push_back(value);
        ++slot_;
        return;
    }

    if (len > 0 && slot_ < len) {
        // First season: run double exponential smoothing and log the
        // raw values so the seasonal indices can be initialized.
        warmup_.push_back(value);
        double prev_level = level_;
        level_ = params_.alpha * value +
                 (1.0 - params_.alpha) * (level_ + trend_);
        trend_ = params_.beta * (level_ - prev_level) +
                 (1.0 - params_.beta) * trend_;
        ++slot_;
        if (slot_ == len) {
            // Seasonal index = deviation from the first-season mean.
            double mean = 0.0;
            for (double v : warmup_)
                mean += v;
            mean /= static_cast<double>(warmup_.size());
            for (std::size_t i = 0; i < len; ++i)
                seasonal_[i] = warmup_[i] - mean;
            warmup_.clear();
        }
        return;
    }

    if (len == 0) {
        double prev_level = level_;
        level_ = params_.alpha * value +
                 (1.0 - params_.alpha) * (level_ + trend_);
        trend_ = params_.beta * (level_ - prev_level) +
                 (1.0 - params_.beta) * trend_;
        ++slot_;
        return;
    }

    std::size_t s = slot_ % len;
    double prev_level = level_;
    level_ = params_.alpha * (value - seasonal_[s]) +
             (1.0 - params_.alpha) * (level_ + trend_);
    trend_ = params_.beta * (level_ - prev_level) +
             (1.0 - params_.beta) * trend_;
    seasonal_[s] = params_.gamma * (value - level_) +
                   (1.0 - params_.gamma) * seasonal_[s];
    ++slot_;
}

double
HoltWintersPredictor::predict() const
{
    double forecast = level_ + params_.trendDamping * trend_;
    if (seasonalActive()) {
        std::size_t s = slot_ % params_.seasonLength;
        forecast += seasonal_[s];
    }
    return forecast;
}

void
HoltWintersPredictor::checkpoint(StateCursor &cursor)
{
    cursor.value(level_, "holt-winters level");
    cursor.value(trend_, "holt-winters trend");
    cursor.count(slot_, "holt-winters slot");
    cursor.flag(primed_, "holt-winters primed");
    cursor.values(seasonal_, "holt-winters seasonal");
    if (seasonal_.size() != params_.seasonLength)
        fatal("predictor restore: seasonal length ", seasonal_.size(),
              " does not match configured ", params_.seasonLength);
    cursor.values(warmup_, "holt-winters warmup");
}

MismatchPredictor::MismatchPredictor(
    std::unique_ptr<SeriesPredictor> peak,
    std::unique_ptr<SeriesPredictor> valley)
    : peak_(std::move(peak)), valley_(std::move(valley))
{
    if (!peak_ || !valley_)
        fatal("MismatchPredictor needs both series predictors");
}

MismatchPredictor
MismatchPredictor::holtWinters(HoltWintersParams params)
{
    return MismatchPredictor(
        std::make_unique<HoltWintersPredictor>(params),
        std::make_unique<HoltWintersPredictor>(params));
}

MismatchPredictor
MismatchPredictor::lastValue()
{
    return MismatchPredictor(std::make_unique<LastValuePredictor>(),
                             std::make_unique<LastValuePredictor>());
}

void
MismatchPredictor::observeSlot(double peak_w, double valley_w)
{
    peak_->observe(peak_w);
    valley_->observe(valley_w);
}

double
MismatchPredictor::predictedPeakW() const
{
    return peak_->predict();
}

double
MismatchPredictor::predictedValleyW() const
{
    return valley_->predict();
}

double
MismatchPredictor::predictedMismatchW() const
{
    return std::max(0.0, peak_->predict() - valley_->predict());
}

void
MismatchPredictor::checkpoint(StateCursor &cursor)
{
    peak_->checkpoint(cursor);
    valley_->checkpoint(cursor);
}

} // namespace heb
