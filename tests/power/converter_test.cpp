/** @file Converter loss model. */

#include <gtest/gtest.h>

#include "power/converter.h"

namespace heb {
namespace {

TEST(Converter, InputOutputInverse)
{
    Converter c = Converter::rackInverter(1000.0);
    for (double out : {10.0, 100.0, 500.0, 900.0}) {
        double in = c.inputFor(out);
        EXPECT_NEAR(c.outputFor(in), out, 1e-9);
        EXPECT_GT(in, out);
    }
}

TEST(Converter, EfficiencyRisesWithLoad)
{
    Converter c = Converter::rackInverter(1000.0);
    EXPECT_LT(c.efficiencyAt(20.0), c.efficiencyAt(500.0));
}

TEST(Converter, DoubleConversionLossierThanDcDc)
{
    Converter ups = Converter::doubleConversionUps(1000.0);
    Converter dc = Converter::dcDcStage(1000.0);
    EXPECT_LT(ups.efficiencyAt(500.0), dc.efficiencyAt(500.0));
}

TEST(Converter, UpsLossInPaperBand)
{
    // Paper §4.1: double conversion costs 4-10 % at realistic loads.
    Converter ups = Converter::doubleConversionUps(1000.0);
    double eff = ups.efficiencyAt(600.0);
    EXPECT_GT(eff, 0.88);
    EXPECT_LT(eff, 0.96);
}

TEST(Converter, ZeroPowerEdgeCases)
{
    Converter c = Converter::rackInverter(1000.0);
    EXPECT_DOUBLE_EQ(c.outputFor(0.0), 0.0);
    EXPECT_DOUBLE_EQ(c.inputFor(0.0), 0.0);
    EXPECT_DOUBLE_EQ(c.efficiencyAt(0.0), 0.0);
}

TEST(Converter, TinyInputSwallowedByFixedLoss)
{
    Converter c = Converter::rackInverter(1000.0);
    // Input below the no-load loss delivers nothing.
    EXPECT_DOUBLE_EQ(c.outputFor(1.0), 0.0);
}

TEST(Converter, TripTakesItOfflineUntilRestart)
{
    Converter c = Converter::rackInverter(1000.0);
    EXPECT_TRUE(c.availableAt(0.0));
    c.trip(100.0, 180.0);
    EXPECT_FALSE(c.availableAt(100.0));
    EXPECT_FALSE(c.availableAt(279.9));
    EXPECT_TRUE(c.availableAt(280.0));
}

TEST(Converter, OverlappingTripsKeepLatestRestart)
{
    Converter c = Converter::rackInverter(1000.0);
    c.trip(10.0, 100.0);
    c.trip(20.0, 10.0); // shorter trip must not shorten the outage
    EXPECT_FALSE(c.availableAt(100.0));
    EXPECT_TRUE(c.availableAt(110.0));
}

TEST(Converter, TripNegativeDelayFatal)
{
    Converter c = Converter::rackInverter(1000.0);
    EXPECT_EXIT(c.trip(0.0, -1.0), testing::ExitedWithCode(1),
                "delay");
}

TEST(Converter, InvalidParamsRejected)
{
    ConverterParams p;
    p.ratedPowerW = 0.0;
    EXPECT_EXIT(Converter{p}, testing::ExitedWithCode(1), "rated");
    ConverterParams q;
    q.proportionalLoss = 1.0;
    EXPECT_EXIT(Converter{q}, testing::ExitedWithCode(1),
                "proportional");
}

} // namespace
} // namespace heb
