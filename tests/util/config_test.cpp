/** @file key=value configuration parsing. */

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "util/config.h"
#include "test_paths.h"

namespace heb {
namespace {

TEST(Config, ParsesBasicPairs)
{
    Config c = Config::fromString("a = 1\nb=hello\n c  =  2.5 ");
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(c.getString("b"), "hello");
    EXPECT_EQ(c.getInt("a"), 1);
    EXPECT_DOUBLE_EQ(c.getDouble("c"), 2.5);
}

TEST(Config, CommentsAndBlankLines)
{
    Config c = Config::fromString(
        "# full comment\n\nx = 5 # trailing comment\n");
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(c.getInt("x"), 5);
}

TEST(Config, Booleans)
{
    Config c = Config::fromString(
        "t1=true\nt2=1\nt3=yes\nf1=false\nf2=0\nf3=no");
    EXPECT_TRUE(c.getBool("t1"));
    EXPECT_TRUE(c.getBool("t2"));
    EXPECT_TRUE(c.getBool("t3"));
    EXPECT_FALSE(c.getBool("f1"));
    EXPECT_FALSE(c.getBool("f2"));
    EXPECT_FALSE(c.getBool("f3"));
}

TEST(Config, Defaults)
{
    Config c = Config::fromString("x = 5");
    EXPECT_EQ(c.getInt("missing", 7), 7);
    EXPECT_DOUBLE_EQ(c.getDouble("missing", 1.5), 1.5);
    EXPECT_EQ(c.getString("missing", "d"), "d");
    EXPECT_TRUE(c.getBool("missing", true));
    EXPECT_EQ(c.getInt("x", 7), 5);
}

TEST(Config, MissingKeyFatal)
{
    Config c = Config::fromString("");
    EXPECT_EXIT((void)c.getString("nope"),
                testing::ExitedWithCode(1), "missing key");
}

TEST(Config, BadNumberFatal)
{
    Config c = Config::fromString("x = abc\ny = 1.5z");
    EXPECT_EXIT((void)c.getDouble("x"), testing::ExitedWithCode(1),
                "not numeric");
    EXPECT_EXIT((void)c.getInt("y"), testing::ExitedWithCode(1),
                "not integral");
}

TEST(ParseNumber, AcceptsWellFormedNumbers)
{
    EXPECT_EQ(parseNumber<long>("16", "--racks"), 16);
    EXPECT_EQ(parseNumber<long>("-3", "--racks"), -3);
    EXPECT_EQ(parseNumber<long long>("9007199254740993", "--seed"),
              9007199254740993ll);
    EXPECT_EQ(parseNumber<double>("1.5", "--hours"), 1.5);
    EXPECT_EQ(parseNumber<double>("2e3", "--hours"), 2000.0);
}

TEST(ParseNumberDeathTest, NamesTheFlagOnMalformedText)
{
    EXPECT_EXIT((void)parseNumber<long>("2x", "--racks"),
                testing::ExitedWithCode(1), "--racks not integral: 2x");
    EXPECT_EXIT((void)parseNumber<long>("two", "--jobs"),
                testing::ExitedWithCode(1), "--jobs not integral: two");
    EXPECT_EXIT((void)parseNumber<long>("2.5", "--jobs"),
                testing::ExitedWithCode(1), "--jobs not integral");
    EXPECT_EXIT((void)parseNumber<long>("", "--jobs"),
                testing::ExitedWithCode(1), "--jobs not integral");
    EXPECT_EXIT((void)parseNumber<long>("99999999999999999999",
                                        "--servers"),
                testing::ExitedWithCode(1), "--servers not integral");
    EXPECT_EXIT((void)parseNumber<double>("1h", "--hours"),
                testing::ExitedWithCode(1), "--hours not numeric: 1h");
    EXPECT_EXIT((void)parseNumber<double>("1e999", "--hours"),
                testing::ExitedWithCode(1), "--hours not numeric");
}

TEST(Config, BadBoolFatal)
{
    Config c = Config::fromString("x = maybe");
    EXPECT_EXIT((void)c.getBool("x"), testing::ExitedWithCode(1),
                "not a boolean");
}

TEST(Config, MalformedLineFatal)
{
    EXPECT_EXIT(Config::fromString("just a line"),
                testing::ExitedWithCode(1), "no '='");
    EXPECT_EXIT(Config::fromString("= value"),
                testing::ExitedWithCode(1), "empty key");
}

TEST(Config, SetOverrides)
{
    Config c = Config::fromString("x = 1");
    c.set("x", "2");
    c.set("y", "3");
    EXPECT_EQ(c.getInt("x"), 2);
    EXPECT_EQ(c.getInt("y"), 3);
}

TEST(Config, FromFileRoundTrip)
{
    std::string path = test::uniqueTempPath("config.cfg");
    {
        std::ofstream out(path);
        out << "budget_w = 300\nsolar = true\n";
    }
    Config c = Config::fromFile(path);
    EXPECT_DOUBLE_EQ(c.getDouble("budget_w"), 300.0);
    EXPECT_TRUE(c.getBool("solar"));
    std::remove(path.c_str());
}

TEST(Config, MissingFileFatal)
{
    EXPECT_EXIT(Config::fromFile("/nonexistent/heb.cfg"),
                testing::ExitedWithCode(1), "cannot open");
}

} // namespace
} // namespace heb
