/** @file Two-way relay semantics. */

#include <gtest/gtest.h>

#include "power/power_switch.h"

namespace heb {
namespace {

TEST(PowerSwitch, StartsOnUtility)
{
    PowerSwitch sw;
    EXPECT_EQ(sw.commandedFeed(), SwitchFeed::Utility);
    EXPECT_EQ(sw.actuations(), 0u);
}

TEST(PowerSwitch, RedundantCommandIsNoOp)
{
    PowerSwitch sw;
    sw.command(SwitchFeed::Battery);
    sw.command(SwitchFeed::Battery);
    EXPECT_EQ(sw.actuations(), 1u);
}

TEST(PowerSwitch, ActuationsCounted)
{
    PowerSwitch sw;
    sw.command(SwitchFeed::Battery);
    sw.command(SwitchFeed::Supercap);
    sw.command(SwitchFeed::Utility);
    EXPECT_EQ(sw.actuations(), 3u);
}

TEST(PowerSwitch, WearFraction)
{
    PowerSwitch sw;
    for (int i = 0; i < 10; ++i) {
        sw.command(SwitchFeed::Battery);
        sw.command(SwitchFeed::Supercap);
    }
    EXPECT_EQ(sw.wearFraction(),
              20.0 / static_cast<double>(PowerSwitch::kRatedActuations));
}

} // namespace
} // namespace heb
