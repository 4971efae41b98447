/** @file The argv walker and the comma-list splitter. */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/cli.h"

namespace heb {
namespace {

/** Owns argv storage for one walker. */
struct Argv
{
    explicit Argv(std::vector<std::string> args) : text(std::move(args))
    {
        for (std::string &a : text)
            ptrs.push_back(a.data());
    }
    int argc() const { return static_cast<int>(ptrs.size()); }
    char **argv() { return ptrs.data(); }

    std::vector<std::string> text;
    std::vector<char *> ptrs;
};

TEST(SplitList, DropsEmptyItems)
{
    EXPECT_EQ(splitList("TS,WC,,MS,"),
              (std::vector<std::string>{"TS", "WC", "MS"}));
    EXPECT_EQ(splitList("HEB-D"), (std::vector<std::string>{"HEB-D"}));
    EXPECT_TRUE(splitList("").empty());
    EXPECT_TRUE(splitList(",,").empty());
}

TEST(CliArgs, WalksValuesAndNumbers)
{
    Argv a({"tool", "--out", "run", "--racks", "3", "--hours", "1.5",
            "--seed", "-7", "--slim"});
    CliArgs cli(a.argc(), a.argv(), "usage: tool\n");
    std::vector<std::string> seen;
    std::string out;
    std::size_t racks = 0;
    double hours = 0.0;
    long long seed = 0;
    while (cli.next()) {
        seen.push_back(cli.arg());
        if (cli.is("--out"))
            out = cli.value();
        else if (cli.is("--racks"))
            racks = cli.count();
        else if (cli.is("--hours"))
            hours = cli.positive();
        else if (cli.is("--seed"))
            seed = cli.number<long long>();
    }
    EXPECT_EQ(seen, (std::vector<std::string>{"--out", "--racks",
                                              "--hours", "--seed",
                                              "--slim"}));
    EXPECT_EQ(out, "run");
    EXPECT_EQ(racks, 3u);
    EXPECT_DOUBLE_EQ(hours, 1.5);
    EXPECT_EQ(seed, -7);
}

/** Walk @p args, handing every flag to value(), count() or
 *  positive() by its name, and unknown() anything else. */
void
walk(std::vector<std::string> args, std::string usage = "usage: tool\n")
{
    args.insert(args.begin(), "tool");
    Argv a(std::move(args));
    CliArgs cli(a.argc(), a.argv(), std::move(usage));
    while (cli.next()) {
        if (cli.is("--name"))
            (void)cli.value();
        else if (cli.is("--count"))
            (void)cli.count();
        else if (cli.is("--positive"))
            (void)cli.positive();
        else
            cli.unknown();
    }
}

TEST(CliArgsDeathTest, RejectsMalformedValuesNamingTheFlag)
{
    EXPECT_EXIT(walk({"--name"}), testing::ExitedWithCode(1),
                "--name requires a value");
    EXPECT_EXIT(walk({"--count", "2x"}), testing::ExitedWithCode(1),
                "--count not integral: 2x");
    EXPECT_EXIT(walk({"--count", "0"}), testing::ExitedWithCode(1),
                "--count must be >= 1");
    EXPECT_EXIT(walk({"--positive", "inf"}),
                testing::ExitedWithCode(1),
                "--positive must be finite and positive");
    EXPECT_EXIT(walk({"--positive", "-1"}),
                testing::ExitedWithCode(1),
                "--positive must be finite and positive");
    EXPECT_EXIT(walk({"--bogus"}), testing::ExitedWithCode(1),
                "unknown argument '--bogus'");
}

TEST(CliArgsDeathTest, SharedFlagsOnlyWhereAccepted)
{
    // --jobs is consumed everywhere; --log-level and --help only by a
    // walker with a usage text, and without one they are unknown.
    EXPECT_EXIT(walk({"--jobs", "0"}), testing::ExitedWithCode(1),
                "--jobs must be from 1");
    EXPECT_EXIT(walk({"--jobs", "0"}, ""), testing::ExitedWithCode(1),
                "--jobs must be from 1");
    EXPECT_EXIT(walk({"--log-level", "bogus"}),
                testing::ExitedWithCode(1), "bogus");
    EXPECT_EXIT(walk({"--log-level", "warn"}, ""),
                testing::ExitedWithCode(1),
                "unknown argument '--log-level'");
    EXPECT_EXIT(walk({"--help"}), testing::ExitedWithCode(0), "");
    EXPECT_EXIT(walk({"--help"}, ""), testing::ExitedWithCode(1),
                "unknown argument '--help'");
}

TEST(CliArgsDeathTest, JobsOnlyWalkerRejectsEverythingElse)
{
    std::vector<std::string> text = {"fig13_ratio", "--help"};
    std::vector<char *> argv = {text[0].data(), text[1].data()};
    EXPECT_EXIT(parseJobsOnly(2, argv.data()), testing::ExitedWithCode(1),
                "unknown argument '--help' \\(supported: --jobs N\\)");
}

} // namespace
} // namespace heb
