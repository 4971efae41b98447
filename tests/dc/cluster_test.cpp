/** @file Cluster aggregation and LRU shutdown. */

#include <vector>

#include <gtest/gtest.h>

#include "dc/cluster.h"

namespace heb {
namespace {

/** Record activity at @p now_seconds on server @p busy only. */
void
touchOne(Cluster &c, std::size_t busy, double now_seconds)
{
    std::vector<double> util(c.size(), 0.0);
    util[busy] = 0.9;
    (void)c.demandW(util, now_seconds);
}

/** onlineCount() the slow way: a scan over every server. */
std::size_t
scanOnline(const Cluster &c)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < c.size(); ++i)
        n += c.isOn(i) ? 1 : 0;
    return n;
}

TEST(Cluster, AggregatePower)
{
    Cluster c(6);
    std::vector<double> util(6, 0.0);
    EXPECT_DOUBLE_EQ(c.totalPowerW(util, 100.0), 180.0); // 6 x idle
    std::vector<double> busy(6, 1.0);
    EXPECT_DOUBLE_EQ(c.totalPowerW(busy, 100.0), 420.0); // 6 x peak
}

TEST(Cluster, NameplateAndIdleFloor)
{
    Cluster c(6);
    EXPECT_DOUBLE_EQ(c.nameplatePeakW(), 420.0);
    EXPECT_DOUBLE_EQ(c.idleFloorW(), 180.0);
}

TEST(Cluster, LruShutdownPicksLeastRecentlyActive)
{
    Cluster c(3);
    touchOne(c, 1, 50.0);
    touchOne(c, 0, 100.0);
    touchOne(c, 2, 200.0);
    auto victims = c.shutdownLru(1, 300.0);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(victims[0], 1u); // oldest activity
    EXPECT_FALSE(c.isOn(1));
    EXPECT_EQ(c.onlineCount(), 2u);
}

TEST(Cluster, LruShutdownMultiple)
{
    Cluster c(4);
    for (std::size_t i = 0; i < 4; ++i)
        touchOne(c, i, 10.0 * static_cast<double>(i) + 1.0);
    auto victims = c.shutdownLru(2, 100.0);
    ASSERT_EQ(victims.size(), 2u);
    EXPECT_EQ(victims[0], 0u);
    EXPECT_EQ(victims[1], 1u);
}

TEST(Cluster, ShutdownMoreThanOnline)
{
    Cluster c(2);
    auto victims = c.shutdownLru(10, 1.0);
    EXPECT_EQ(victims.size(), 2u);
    EXPECT_EQ(c.onlineCount(), 0u);
}

TEST(Cluster, OffServersDrawNothing)
{
    Cluster c(2);
    c.shutdownLru(1, 0.0);
    std::vector<double> busy(2, 1.0);
    EXPECT_DOUBLE_EQ(c.totalPowerW(busy, 10.0), 70.0);
}

TEST(Cluster, PowerOnAllReboots)
{
    Cluster c(3);
    c.shutdownLru(2, 0.0);
    c.powerOnAll(100.0);
    EXPECT_EQ(c.onlineCount(), 3u);
    EXPECT_EQ(c.totalOnOffCycles(), 2u);
    EXPECT_GT(c.totalBootEnergyWh(), 0.0);
}

TEST(Cluster, DowntimeAggregates)
{
    Cluster c(2);
    c.shutdownLru(1, 0.0);
    c.accrueDowntime(5.0);
    c.shutdownLru(1, 0.0);
    c.accrueDowntime(7.0);
    EXPECT_DOUBLE_EQ(c.totalDowntimeSeconds(), 19.0); // 5 + 2 x 7
}

TEST(Cluster, UtilSizeMismatchFatal)
{
    Cluster c(3);
    std::vector<double> wrong(2, 0.5);
    EXPECT_EXIT((void)c.totalPowerW(wrong, 0.0),
                testing::ExitedWithCode(1), "mismatch");
    EXPECT_EXIT((void)c.demandW(wrong, 0.0), testing::ExitedWithCode(1),
                "mismatch");
}

TEST(Cluster, DemandPassRecordsActivityAndSumsLikeTotalPower)
{
    Cluster c(4);
    for (std::size_t i = 0; i < 4; ++i)
        touchOne(c, i, 1.0 + static_cast<double>(i));
    c.shutdownLru(2, 5.0);
    c.powerOnFirstOffline(100.0); // server 0 boots, server 1 stays off
    std::vector<double> util{0.9, 0.9, 0.03, 0.7};
    double total = c.totalPowerW(util, 120.0);
    EXPECT_EQ(c.demandW(util, 120.0), total);
    EXPECT_DOUBLE_EQ(total, 50.0 + 0.0 + (30.0 + 40.0 * 0.03) +
                                (30.0 + 40.0 * 0.7));
    EXPECT_DOUBLE_EQ(c.lastActiveTime(0), 1.0); // booting
    EXPECT_DOUBLE_EQ(c.lastActiveTime(1), 2.0); // off
    EXPECT_DOUBLE_EQ(c.lastActiveTime(2), 3.0); // idle
    EXPECT_DOUBLE_EQ(c.lastActiveTime(3), 120.0);
}

TEST(Cluster, OnlineCountMatchesScanAcrossPowerChanges)
{
    Cluster c(8);
    EXPECT_EQ(c.onlineCount(), scanOnline(c));
    for (std::size_t i = 0; i < 8; ++i)
        touchOne(c, i, static_cast<double>(i));
    c.shutdownLru(3, 10.0);
    EXPECT_EQ(c.onlineCount(), 5u);
    EXPECT_EQ(c.onlineCount(), scanOnline(c));
    c.shutdownLru(0, 11.0);
    c.shutdownLru(2, 12.0);
    EXPECT_EQ(c.onlineCount(), scanOnline(c));
    EXPECT_TRUE(c.powerOnFirstOffline(20.0));
    EXPECT_EQ(c.onlineCount(), 4u);
    EXPECT_EQ(c.onlineCount(), scanOnline(c));
    c.powerOnAll(30.0);
    EXPECT_EQ(c.onlineCount(), 8u);
    EXPECT_EQ(c.onlineCount(), scanOnline(c));
    EXPECT_FALSE(c.powerOnFirstOffline(40.0));
    c.shutdownLru(100, 50.0);
    EXPECT_EQ(c.onlineCount(), 0u);
    EXPECT_EQ(c.onlineCount(), scanOnline(c));
}

TEST(Cluster, OnlineCountMatchesScanAfterRestoreWithShedServers)
{
    Cluster saved(6);
    for (std::size_t i = 0; i < 6; ++i)
        touchOne(saved, i, static_cast<double>(6 - i));
    saved.shutdownLru(4, 10.0);
    saved.powerOnFirstOffline(20.0);

    // Restore into a fresh (all-on) cluster, and back over a cluster
    // whose servers are all off, so the count moves both ways.
    Cluster fresh(6);
    Cluster dark(6);
    dark.shutdownLru(6, 0.0);
    for (std::size_t i = 0; i < 6; ++i) {
        fresh.restoreServer(i, saved.serverState(i));
        dark.restoreServer(i, saved.serverState(i));
    }
    for (const Cluster *c : {&fresh, &dark}) {
        EXPECT_EQ(c->onlineCount(), 3u);
        EXPECT_EQ(c->onlineCount(), scanOnline(*c));
        for (std::size_t i = 0; i < 6; ++i)
            EXPECT_EQ(c->isOn(i), saved.isOn(i)) << i;
    }
}

TEST(Cluster, ZeroServersRejected)
{
    EXPECT_EXIT(Cluster(0), testing::ExitedWithCode(1), "at least");
}

} // namespace
} // namespace heb
