/**
 * @file
 * Chrome trace_event exporter tests: event-object structure, span
 * and instant phase selection, per-rack track metadata, the degrade
 * action-name sync with core, and the end-to-end property that a
 * calm fleet's quiescent spans cover exactly
 * FleetResult::macroSpanTicks.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/degradation.h"
#include "core/schemes.h"
#include "fault/fault_plan.h"
#include "obs/trace.h"
#include "obs/trace_event.h"
#include "sim/fleet.h"
#include "workload/workload_profiles.h"
#include "calm_fleet.h"

namespace heb {
namespace obs {
namespace {

/**
 * Split the rendered document into its top-level event objects by
 * brace counting. Also checks overall balance — the cheap stand-in
 * for a full JSON parse.
 */
std::vector<std::string>
extractEvents(const std::string &doc)
{
    std::vector<std::string> events;
    const std::string open = "\"traceEvents\": [";
    std::size_t start = doc.find(open);
    EXPECT_NE(start, std::string::npos) << doc.substr(0, 200);
    int depth = 0;
    bool inString = false;
    std::size_t eventStart = 0;
    for (std::size_t i = start + open.size(); i < doc.size(); ++i) {
        char c = doc[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
            continue;
        }
        if (c == '"')
            inString = true;
        else if (c == '{') {
            if (depth++ == 0)
                eventStart = i;
        } else if (c == '}') {
            --depth;
            EXPECT_GE(depth, 0) << "unbalanced braces";
            if (depth == 0)
                events.push_back(
                    doc.substr(eventStart, i - eventStart + 1));
        } else if (c == ']' && depth == 0) {
            return events;
        }
    }
    ADD_FAILURE() << "traceEvents array never closed";
    return events;
}

/** Raw value of `"key": <value>` inside one event object. */
std::string
field(const std::string &event, const std::string &key)
{
    std::string needle = "\"" + key + "\": ";
    std::size_t at = event.find(needle);
    if (at == std::string::npos)
        return "";
    std::size_t start = at + needle.size();
    std::size_t end = start;
    if (event[start] == '"') {
        end = start + 1;
        while (end < event.size() && event[end] != '"')
            end += event[end] == '\\' ? 2 : 1;
        return event.substr(start + 1, end - start - 1);
    }
    while (end < event.size() && event[end] != ',' &&
           event[end] != '}')
        ++end;
    return event.substr(start, end - start);
}

TEST(ChromeTrace, QuiescentSpansAndCounters)
{
    TraceRecorder t(64);
    // Quiescent span recorded at its start, 30 ticks long.
    t.record(TraceEventKind::Quiescent, 100.0,
             {30.0, 120.0, 200.0, 1.5});
    t.record(TraceEventKind::Tick, 130.0,
             {120.0, 0.0, 0.0, 0.0, 0.0, 118.0});
    t.record(TraceEventKind::SocSample, 130.0, {0.8, 0.9});

    ChromeTraceOptions options;
    options.tickSeconds = 1.0;
    options.includeProfile = false;
    std::string doc = renderChromeTrace(t.snapshot(), options);
    std::vector<std::string> events = extractEvents(doc);
    // 2 metadata (process_name + one track) + 3 payload events.
    ASSERT_EQ(events.size(), 5u);

    const std::string &quiescent = events[2];
    EXPECT_EQ(field(quiescent, "ph"), "X");
    EXPECT_EQ(field(quiescent, "name"), "quiescent");
    EXPECT_EQ(field(quiescent, "ts"), "100000000");
    EXPECT_EQ(field(quiescent, "dur"), "30000000");
    EXPECT_EQ(field(quiescent, "ticks"), "30");

    const std::string &tick = events[3];
    EXPECT_EQ(field(tick, "ph"), "C");
    EXPECT_EQ(field(tick, "name"), "rack0 power");
    EXPECT_EQ(field(tick, "demand_w"), "120");
    EXPECT_EQ(field(tick, "source_draw_w"), "118");

    const std::string &soc = events[4];
    EXPECT_EQ(field(soc, "ph"), "C");
    EXPECT_EQ(field(soc, "name"), "rack0 soc");
}

TEST(ChromeTrace, TickSecondsScalesQuiescentSpans)
{
    TraceRecorder t(8);
    t.record(TraceEventKind::Quiescent, 0.0, {10.0, 0.0, 0.0, 0.0});
    ChromeTraceOptions options;
    options.tickSeconds = 0.5;
    options.includeProfile = false;
    std::string doc = renderChromeTrace(t.snapshot(), options);
    std::vector<std::string> events = extractEvents(doc);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(field(events[2], "dur"), "5000000");
}

TEST(ChromeTrace, FaultWindowsAndInstants)
{
    TraceRecorder t(16);
    // Timed fault activation -> a 60 s window.
    t.record(TraceEventKind::Fault, 10.0,
             {0.0, 1.0, 0.5, 60.0, 2.0});
    // Permanent derate (duration 0) -> an instant.
    t.record(TraceEventKind::Fault, 20.0,
             {1.0, 1.0, 0.25, 0.0, 0.0});
    // Clearance edge -> skipped (the window end already marks it).
    t.record(TraceEventKind::Fault, 70.0,
             {0.0, 0.0, 0.5, 0.0, 2.0});

    ChromeTraceOptions options;
    options.includeProfile = false;
    std::string doc = renderChromeTrace(t.snapshot(), options);
    std::vector<std::string> events = extractEvents(doc);
    ASSERT_EQ(events.size(), 4u); // 2 metadata + 2 faults

    EXPECT_EQ(field(events[2], "ph"), "X");
    EXPECT_EQ(field(events[2], "name"),
              fault::faultKindName(static_cast<fault::FaultKind>(0)));
    EXPECT_EQ(field(events[2], "dur"), "60000000");

    EXPECT_EQ(field(events[3], "ph"), "i");
    EXPECT_EQ(field(events[3], "name"),
              fault::faultKindName(static_cast<fault::FaultKind>(1)));
}

TEST(ChromeTrace, DegradeNamesMatchCore)
{
    // The exporter duplicates the action table because obs cannot
    // link core; this is the sync check the duplication relies on.
    TraceRecorder t(16);
    const DegradationAction actions[] = {
        DegradationAction::None, DegradationAction::Rebalanced,
        DegradationAction::BatteryOnly, DegradationAction::ScOnly,
        DegradationAction::Shed};
    for (DegradationAction a : actions) {
        t.record(TraceEventKind::Degrade, 1.0,
                 {static_cast<double>(a), 10.0, 20.0});
    }
    ChromeTraceOptions options;
    options.includeProfile = false;
    std::vector<std::string> events =
        extractEvents(renderChromeTrace(t.snapshot(), options));
    ASSERT_EQ(events.size(), 2u + 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(field(events[2 + i], "action"),
                  degradationActionName(actions[i]))
            << "action code " << i;
    }
}

TEST(ChromeTrace, EventsLandOnTheirRecordedTrack)
{
    TraceRecorder t(16);
    {
        ScopedTraceTrack track(3);
        t.record(TraceEventKind::Shed, 5.0, {10.0, 1.0, 5.0});
    }
    t.record(TraceEventKind::Restart, 6.0, {6.0});

    ChromeTraceOptions options;
    options.includeProfile = false;
    std::string doc = renderChromeTrace(t.snapshot(), options);
    std::vector<std::string> events = extractEvents(doc);
    // process_name + two thread_name records + two instants.
    ASSERT_EQ(events.size(), 5u);
    EXPECT_NE(doc.find("rack 3"), std::string::npos);
    EXPECT_EQ(field(events[3], "name"), "shed");
    EXPECT_EQ(field(events[3], "tid"), "3");
    EXPECT_EQ(field(events[4], "name"), "restart");
    EXPECT_EQ(field(events[4], "tid"), "0");
}

TEST(ChromeTrace, EmptyRecorderRendersEmptyDocument)
{
    TraceRecorder t(4);
    ChromeTraceOptions options;
    options.includeProfile = false;
    std::string doc = renderChromeTrace(t.snapshot(), options);
    EXPECT_TRUE(extractEvents(doc).empty());
}

TEST(ChromeTrace, QuiescentSpansCoverMacroSpanTicks)
{
    setTelemetryLevel(TelemetryLevel::Full);
    TraceRecorder trace(1 << 18);
    setActiveTrace(&trace);

    // Two calm racks on a static 2 x 260 W split.
    heb::test::Rig rig = heb::test::calmRig(2);
    const SimConfig cfg = heb::test::hoursConfig(4.0);
    FleetResult r =
        FleetSimulator(cfg, 2.0 * 260.0, FleetOptions{BudgetPolicy::Static})
            .run(rig.specs);
    setActiveTrace(nullptr);
    setTelemetryLevel(TelemetryLevel::Off);

    ASSERT_GT(r.macroSpanTicks, 0ul)
        << "calm fleet never engaged the event engine";
    ASSERT_EQ(trace.dropped(), 0u)
        << "ring overflow would undercount spans";

    // Per-rack quiescent spans, summed over the whole fleet, must
    // cover exactly the ticks the engine advanced in macro-spans.
    ChromeTraceOptions options;
    options.tickSeconds = cfg.tickSeconds;
    options.includeProfile = false;
    std::vector<std::string> events =
        extractEvents(renderChromeTrace(trace.snapshot(), options));
    std::map<std::string, double> ticksByTrack;
    double totalTicks = 0.0;
    for (const std::string &ev : events) {
        if (field(ev, "name") != "quiescent")
            continue;
        double ticks = std::stod(field(ev, "ticks"));
        ticksByTrack[field(ev, "tid")] += ticks;
        totalTicks += ticks;
        // Span length on the timeline = ticks x tickSeconds.
        EXPECT_EQ(std::stod(field(ev, "dur")),
                  ticks * cfg.tickSeconds * 1e6);
    }
    EXPECT_EQ(ticksByTrack.size(), 2u)
        << "each rack should own a track";
    // Every rack advances through every fleet-wide macro-span, so
    // each track individually covers macroSpanTicks.
    for (const auto &[tid, ticks] : ticksByTrack) {
        EXPECT_EQ(ticks, static_cast<double>(r.macroSpanTicks))
            << "track " << tid;
    }
    EXPECT_EQ(totalTicks,
              2.0 * static_cast<double>(r.macroSpanTicks));
}

} // namespace
} // namespace obs
} // namespace heb
