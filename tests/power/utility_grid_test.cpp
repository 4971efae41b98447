/** @file Budgeted utility feed and its outage windows. */

#include <gtest/gtest.h>

#include <limits>

#include "power/utility_grid.h"

namespace heb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(UtilityGrid, ConstantBudget)
{
    UtilityGrid g(260.0);
    EXPECT_DOUBLE_EQ(g.availablePowerW(0.0), 260.0);
    EXPECT_DOUBLE_EQ(g.availablePowerW(1e6), 260.0);
    EXPECT_EQ(g.nextChangeTime(0.0), kInf);
}

TEST(UtilityGrid, StartsOnFullBudget)
{
    // The feed starts connected: at t = 0 the whole budget is there,
    // even with a fault window already registered for later.
    UtilityGrid g(260.0);
    g.addOutage(43200.0, 0.05);
    EXPECT_DOUBLE_EQ(g.availablePowerW(0.0), 260.0);
    EXPECT_EQ(g.nextChangeTime(0.0), 43200.0);
}

TEST(UtilityGrid, InvalidConstruction)
{
    EXPECT_EXIT(UtilityGrid(-5.0), testing::ExitedWithCode(1),
                "non-negative");
}

TEST(UtilityGrid, OutageWindowZeroesSupply)
{
    // A stuck transfer switch (an ATS fault) is an outage window.
    UtilityGrid g(260.0);
    g.addOutage(50.0, 45.0);
    EXPECT_DOUBLE_EQ(g.availablePowerW(49.9), 260.0);
    EXPECT_DOUBLE_EQ(g.availablePowerW(50.0), 0.0);
    EXPECT_DOUBLE_EQ(g.availablePowerW(70.0), 0.0);
    EXPECT_DOUBLE_EQ(g.availablePowerW(95.0), 260.0);
}

TEST(UtilityGrid, FutureAndOverlappingOutagesCompose)
{
    // Windows registered ahead of time only bite when reached, and
    // overlapping windows union.
    UtilityGrid g(260.0);
    g.addOutage(100.0, 10.0);
    g.addOutage(105.0, 20.0);
    EXPECT_DOUBLE_EQ(g.availablePowerW(0.0), 260.0);
    EXPECT_DOUBLE_EQ(g.availablePowerW(104.0), 0.0);
    EXPECT_DOUBLE_EQ(g.availablePowerW(115.0), 0.0);
    EXPECT_DOUBLE_EQ(g.availablePowerW(125.0), 260.0);
}

TEST(UtilityGrid, NonPositiveOutageFatal)
{
    UtilityGrid g(260.0);
    EXPECT_EXIT(g.addOutage(0.0, -1.0), testing::ExitedWithCode(1),
                "duration");
    EXPECT_EXIT(g.addOutage(0.0, 0.0), testing::ExitedWithCode(1),
                "duration");
}

TEST(UtilityGrid, NextChangeTimeOverlappingWindows)
{
    UtilityGrid g(260.0);
    g.addOutage(100.0, 10.0); // [100, 110)
    g.addOutage(105.0, 20.0); // [105, 125)
    EXPECT_EQ(g.nextChangeTime(0.0), 100.0);
    // The start is inclusive: at 100 the next edge is the later one.
    EXPECT_EQ(g.nextChangeTime(100.0), 105.0);
    EXPECT_EQ(g.nextChangeTime(105.0), 110.0);
    // An inner edge is still an edge; the supply stays 0 across it,
    // so reporting it only ends a span early.
    EXPECT_EQ(g.nextChangeTime(110.0), 125.0);
    // The end is exclusive: from 125 on nothing changes.
    EXPECT_EQ(g.nextChangeTime(125.0), kInf);
}

TEST(UtilityGrid, NextChangeTimeContainedWindow)
{
    UtilityGrid g(260.0);
    g.addOutage(200.0, 100.0); // [200, 300)
    g.addOutage(240.0, 10.0);  // [240, 250), inside the first
    EXPECT_EQ(g.nextChangeTime(199.0), 200.0);
    EXPECT_EQ(g.nextChangeTime(200.0), 240.0);
    EXPECT_EQ(g.nextChangeTime(240.0), 250.0);
    EXPECT_EQ(g.nextChangeTime(250.0), 300.0);
    EXPECT_DOUBLE_EQ(g.availablePowerW(250.0), 0.0);
    EXPECT_DOUBLE_EQ(g.availablePowerW(300.0), 260.0);
}

TEST(UtilityGrid, NextChangeTimeAdjacentWindows)
{
    // [10, 20) then [20, 30): the shared edge 20 is reported once and
    // the supply stays 0 across it.
    UtilityGrid g(260.0);
    g.addOutage(20.0, 10.0);
    g.addOutage(10.0, 10.0);
    EXPECT_EQ(g.nextChangeTime(9.5), 10.0);
    EXPECT_EQ(g.nextChangeTime(10.0), 20.0);
    EXPECT_EQ(g.nextChangeTime(19.999), 20.0);
    EXPECT_EQ(g.nextChangeTime(20.0), 30.0);
    EXPECT_DOUBLE_EQ(g.availablePowerW(19.999), 0.0);
    EXPECT_DOUBLE_EQ(g.availablePowerW(20.0), 0.0);
    EXPECT_DOUBLE_EQ(g.availablePowerW(30.0), 260.0);
    EXPECT_EQ(g.nextChangeTime(30.0), kInf);
}

} // namespace
} // namespace heb
