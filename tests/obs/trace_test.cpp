/**
 * @file
 * TraceRecorder unit tests: ring wraparound with drop accounting,
 * oldest-first snapshots, the telemetry gate on activeTrace(), and
 * the JSONL/CSV flush formats.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/trace.h"
#include "test_paths.h"

namespace heb {
namespace obs {
namespace {

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

class TraceTest : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        setActiveTrace(nullptr);
        setTelemetryLevel(TelemetryLevel::Off);
    }
};

TEST_F(TraceTest, RecordsUpToCapacity)
{
    TraceRecorder t(4);
    t.record(TraceEventKind::Tick, 0.0, {1.0});
    t.record(TraceEventKind::Tick, 1.0, {2.0});
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.capacity(), 4u);
    EXPECT_EQ(t.dropped(), 0u);

    auto events = t.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_DOUBLE_EQ(events[0].timeSeconds, 0.0);
    EXPECT_DOUBLE_EQ(events[0].values[0], 1.0);
    EXPECT_DOUBLE_EQ(events[1].timeSeconds, 1.0);
}

TEST_F(TraceTest, WraparoundKeepsNewestOldestFirst)
{
    TraceRecorder t(4);
    for (int i = 0; i < 10; ++i)
        t.record(TraceEventKind::Tick, static_cast<double>(i), {});
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.dropped(), 6u);

    auto events = t.snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(events[i].timeSeconds, 6.0 + i);
}

TEST_F(TraceTest, ClearDropsEverything)
{
    TraceRecorder t(2);
    for (int i = 0; i < 5; ++i)
        t.record(TraceEventKind::Shed, static_cast<double>(i), {1.0});
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_TRUE(t.snapshot().empty());
}

TEST_F(TraceTest, ExtraValuesDroppedMissingReadZero)
{
    TraceRecorder t(2);
    t.record(TraceEventKind::Restart, 1.0,
             {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0});
    t.record(TraceEventKind::SocSample, 2.0, {0.5});
    auto events = t.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_DOUBLE_EQ(events[0].values[kTraceEventFieldMax - 1], 6.0);
    EXPECT_DOUBLE_EQ(events[1].values[0], 0.5);
    EXPECT_DOUBLE_EQ(events[1].values[1], 0.0);
}

TEST_F(TraceTest, ActiveTraceRequiresFullLevelAndRecorder)
{
    TraceRecorder t(4);
    EXPECT_EQ(activeTrace(), nullptr);

    setActiveTrace(&t);
    setTelemetryLevel(TelemetryLevel::Metrics);
    EXPECT_EQ(activeTrace(), nullptr) << "Metrics level must not trace";

    setTelemetryLevel(TelemetryLevel::Full);
    EXPECT_EQ(activeTrace(), &t);

    setActiveTrace(nullptr);
    EXPECT_EQ(activeTrace(), nullptr);
}

TEST_F(TraceTest, SchemaNamesEveryKind)
{
    for (std::size_t i = 0; i < kTraceEventKinds; ++i) {
        auto kind = static_cast<TraceEventKind>(i);
        EXPECT_NE(traceEventKindName(kind), nullptr);
        const auto &fields = traceEventFields(kind);
        EXPECT_FALSE(fields.empty());
        EXPECT_LE(fields.size(), kTraceEventFieldMax);
    }
    EXPECT_STREQ(traceEventKindName(TraceEventKind::Tick), "tick");
    EXPECT_STREQ(traceEventKindName(TraceEventKind::SlotPlan),
                 "slot_plan");
}

TEST_F(TraceTest, JsonlLinesAreSelfDescribing)
{
    TraceRecorder t(8);
    t.record(TraceEventKind::Tick, 1.0,
             {100.0, 90.0, 5.0, 5.0, 0.0, 90.0});
    t.record(TraceEventKind::Shed, 2.0, {12.0, 1.0, 5.0});

    std::string path = test::uniqueTempPath("trace.jsonl");
    t.writeJsonl(path);
    auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 2u);

    EXPECT_NE(lines[0].find("\"t\": 1"), std::string::npos);
    EXPECT_NE(lines[0].find("\"type\": \"tick\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"demand_w\": 100"), std::string::npos);
    EXPECT_NE(lines[0].find("\"source_draw_w\": 90"),
              std::string::npos);
    EXPECT_NE(lines[1].find("\"type\": \"shed\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"servers_shed\": 1"),
              std::string::npos);
    for (const auto &line : lines) {
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
    }
    std::remove(path.c_str());
}

TEST_F(TraceTest, CsvHasFixedHeaderAndTypeColumn)
{
    TraceRecorder t(8);
    t.record(TraceEventKind::Restart, 3.0, {6.0});

    std::string path = test::uniqueTempPath("trace.csv");
    t.writeCsv(path);
    auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].substr(0, 12), "seconds,type");
    EXPECT_NE(lines[1].find("restart"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace obs
} // namespace heb
