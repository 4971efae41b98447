/**
 * @file Per-server power model, DVFS and on/off cycling, exercised
 * through one-server clusters.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dc/cluster.h"

namespace heb {
namespace {

Cluster
node()
{
    return Cluster(1);
}

/** Record one tick of activity on a one-server cluster. */
void
touch(Cluster &c, double now_seconds, double utilization)
{
    std::vector<double> util{utilization};
    (void)c.demandW(util, now_seconds);
}

TEST(Server, IdleAndPeakEnvelope)
{
    Cluster s = node();
    EXPECT_DOUBLE_EQ(s.powerW(0, 0.0, 100.0), 30.0);
    EXPECT_DOUBLE_EQ(s.powerW(0, 1.0, 100.0), 70.0);
}

TEST(Server, PowerScalesLinearlyWithUtil)
{
    Cluster s = node();
    EXPECT_DOUBLE_EQ(s.powerW(0, 0.5, 100.0), 50.0);
}

TEST(Server, UtilizationClamped)
{
    Cluster s = node();
    EXPECT_DOUBLE_EQ(s.powerW(0, 2.0, 100.0), 70.0);
    EXPECT_DOUBLE_EQ(s.powerW(0, -1.0, 100.0), 30.0);
}

TEST(Server, LowFrequencyCutsDynamicPower)
{
    Cluster s = node();
    s.setFrequency(Cluster::Frequency::Low);
    double p_low = s.powerW(0, 1.0, 100.0);
    // (1.3/1.8)^2 ~ 0.52 of the 40 W dynamic range.
    EXPECT_NEAR(p_low, 30.0 + 40.0 * 0.522, 0.5);
    EXPECT_LT(p_low, 70.0);
    // Idle power unaffected by frequency.
    EXPECT_DOUBLE_EQ(s.powerW(0, 0.0, 100.0), 30.0);
}

/** The dynamic-power model with the DVFS factor spelled out. */
double
modelPowerW(const ServerParams &p, double u, double freq_ghz)
{
    return p.idlePowerW + (p.peakPowerW - p.idlePowerW) * u *
                              std::pow(freq_ghz / p.highFreqGhz,
                                       p.freqPowerExponent);
}

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

TEST(Server, CachedDvfsFactorBitwiseAfterRoundTrips)
{
    ServerParams p;
    p.lowFreqGhz = 1.1;
    p.highFreqGhz = 2.3;
    p.freqPowerExponent = 2.7;
    const double us[] = {0.0, 0.137, 0.5, 0.93, 1.0};
    auto expect_level = [&](const Cluster &s, double freq_ghz) {
        for (double u : us) {
            EXPECT_EQ(bits(s.powerW(0, u, 100.0)),
                      bits(modelPowerW(p, u, freq_ghz)))
                << "u " << u << " at " << freq_ghz << " GHz";
        }
    };

    Cluster fresh(1, p);
    expect_level(fresh, p.highFreqGhz);

    // Level changes, repeated and redundant commands included.
    Cluster s(1, p);
    s.setFrequency(Cluster::Frequency::Low);
    s.setFrequency(Cluster::Frequency::Low);
    expect_level(s, p.lowFreqGhz);
    s.setFrequency(Cluster::Frequency::High);
    expect_level(s, p.highFreqGhz);
    for (double u : us)
        EXPECT_EQ(bits(s.powerW(0, u, 7.0)), bits(fresh.powerW(0, u, 7.0)));

    // restoreServer picks the factor of the restored level.
    Cluster low(1, p);
    low.setFrequency(Cluster::Frequency::Low);
    Cluster restored(1, p);
    restored.restoreServer(0, low.serverState(0));
    expect_level(restored, p.lowFreqGhz);
    restored.restoreServer(0, fresh.serverState(0));
    expect_level(restored, p.highFreqGhz);
}

TEST(Server, OffDrawsNothing)
{
    Cluster s = node();
    s.shutdownLru(1, 10.0);
    EXPECT_DOUBLE_EQ(s.powerW(0, 0.9, 11.0), 0.0);
    EXPECT_FALSE(s.isOn(0));
    EXPECT_FALSE(s.isUp(0, 11.0));
}

TEST(Server, BootWindowDrawsBootPower)
{
    Cluster s = node();
    s.shutdownLru(1, 10.0);
    s.powerOnAll(20.0);
    EXPECT_TRUE(s.isOn(0));
    EXPECT_FALSE(s.isUp(0, 30.0)); // still booting
    EXPECT_DOUBLE_EQ(s.powerW(0, 0.9, 30.0), s.params().bootPowerW);
    EXPECT_TRUE(s.isUp(0, 20.0 + s.params().bootTimeS));
}

TEST(Server, OnOffCyclesCounted)
{
    Cluster s = node();
    s.shutdownLru(1, 1.0);
    s.powerOnAll(2.0);
    s.shutdownLru(1, 3.0);
    s.powerOnFirstOffline(4.0);
    EXPECT_EQ(s.totalOnOffCycles(), 2u);
    EXPECT_GT(s.totalBootEnergyWh(), 0.0);
}

TEST(Server, RedundantPowerCommandsIgnored)
{
    Cluster s = node();
    s.powerOnAll(1.0); // already on
    EXPECT_FALSE(s.powerOnFirstOffline(1.5));
    EXPECT_EQ(s.totalOnOffCycles(), 0u);
    s.shutdownLru(1, 2.0);
    EXPECT_TRUE(s.shutdownLru(1, 3.0).empty()); // already off
    EXPECT_EQ(s.totalOnOffCycles(), 0u); // cycles count power-ONs
}

TEST(Server, DowntimeAccrual)
{
    Cluster s = node();
    s.accrueDowntime(3.0); // on: nothing accrues
    s.shutdownLru(1, 0.0);
    s.accrueDowntime(10.0);
    s.accrueDowntime(5.0);
    EXPECT_DOUBLE_EQ(s.totalDowntimeSeconds(), 15.0);
}

TEST(Server, TouchUpdatesLruOnlyWhenBusyAndUp)
{
    Cluster s = node();
    touch(s, 100.0, 0.5);
    EXPECT_DOUBLE_EQ(s.lastActiveTime(0), 100.0);
    touch(s, 200.0, 0.01); // idle: not an activity
    EXPECT_DOUBLE_EQ(s.lastActiveTime(0), 100.0);
    s.shutdownLru(1, 300.0);
    touch(s, 400.0, 0.9); // off: not an activity
    EXPECT_DOUBLE_EQ(s.lastActiveTime(0), 100.0);
    s.powerOnAll(500.0);
    touch(s, 510.0, 0.9); // booting: not an activity
    EXPECT_DOUBLE_EQ(s.lastActiveTime(0), 100.0);
}

TEST(Server, BootEnergyMatchesCycles)
{
    Cluster s = node();
    s.shutdownLru(1, 0.0);
    s.powerOnAll(1.0);
    double expected =
        s.params().bootPowerW * s.params().bootTimeS / 3600.0;
    EXPECT_NEAR(s.totalBootEnergyWh(), expected, 1e-9);
}

TEST(Server, InvalidEnvelopeRejected)
{
    ServerParams p;
    p.peakPowerW = p.idlePowerW;
    EXPECT_EXIT(Cluster(1, p), testing::ExitedWithCode(1), "envelope");
}

} // namespace
} // namespace heb
