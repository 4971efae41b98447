/**
 * @file
 * Predictor-quality properties across all eight workload demand
 * series: after warm-up, Holt-Winters must not lose to the naive
 * last-value predictor on periodic datacenter load (the premise
 * behind HEB-D > HEB-F).
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/predictor.h"
#include "dc/cluster.h"
#include "workload/workload_profiles.h"

namespace heb {
namespace {

/** Mean absolute percentage error (%); zero actuals are skipped. */
double
mape(const std::vector<double> &actual,
     const std::vector<double> &predicted)
{
    double acc = 0.0;
    std::size_t used = 0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        if (actual[i] == 0.0)
            continue;
        acc += std::abs((actual[i] - predicted[i]) / actual[i]);
        ++used;
    }
    return used == 0 ? 0.0 : 100.0 * acc / static_cast<double>(used);
}

/** Per-slot peak series of a workload's cluster demand (W). */
std::vector<double>
slotPeaks(const std::string &name, std::size_t slots,
          double slot_s = 600.0)
{
    auto w = makeWorkload(name);
    Cluster cluster(6);
    cluster.setFrequency(w->peakClass() == PeakClass::Small
                             ? Cluster::Frequency::Low
                             : Cluster::Frequency::High);
    std::vector<double> peaks;
    std::vector<double> util(6, 0.0);
    for (std::size_t slot = 0; slot < slots; ++slot) {
        double peak = 0.0;
        for (double t = 0.0; t < slot_s; t += 10.0) {
            double now = static_cast<double>(slot) * slot_s + t;
            for (std::size_t s = 0; s < 6; ++s)
                util[s] = w->utilization(s, now);
            peak = std::max(peak, cluster.totalPowerW(util, now));
        }
        peaks.push_back(peak);
    }
    return peaks;
}

class PredictorQuality : public testing::TestWithParam<std::string>
{
};

TEST_P(PredictorQuality, HoltWintersAtLeastMatchesNaiveAfterWarmup)
{
    // Three days of slots; score day 2-3 only (day 1 is warm-up).
    std::vector<double> peaks = slotPeaks(GetParam(), 3 * 144);

    HoltWintersPredictor hw;
    LastValuePredictor naive;
    std::vector<double> actual, hw_pred, nv_pred;
    for (std::size_t i = 0; i < peaks.size(); ++i) {
        if (i >= 144) {
            actual.push_back(peaks[i]);
            hw_pred.push_back(hw.predict());
            nv_pred.push_back(naive.predict());
        }
        hw.observe(peaks[i]);
        naive.observe(peaks[i]);
    }
    double hw_err = mape(actual, hw_pred);
    double nv_err = mape(actual, nv_pred);
    // Allow a small tolerance: jittered series can favour naive by a
    // hair, but HW must never be categorically worse.
    EXPECT_LE(hw_err, nv_err * 1.15 + 0.5)
        << "HW " << hw_err << "% vs naive " << nv_err << "%";
}

TEST_P(PredictorQuality, ForecastStaysInPhysicalRange)
{
    std::vector<double> peaks = slotPeaks(GetParam(), 2 * 144);
    HoltWintersPredictor hw;
    for (std::size_t i = 0; i < peaks.size(); ++i) {
        hw.observe(peaks[i]);
        if (i > 10) {
            EXPECT_GT(hw.predict(), 0.0);
            EXPECT_LT(hw.predict(), 600.0); // well above nameplate
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, PredictorQuality,
                         testing::Values("PR", "WC", "DA", "WS",
                                         "MS", "DFS", "HB", "TS"));

} // namespace
} // namespace heb
