/**
 * @file
 * Golden end-to-end check: a one-slot simulation with full telemetry
 * produces a parseable JSONL trace with the documented event schema,
 * and populates the metrics registry across the sim/esd/core layers.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "sim/plan_cache.h"
#include "test_paths.h"

namespace heb {
namespace obs {
namespace {

/**
 * Tiny validator for the flat one-line objects the recorder emits:
 * `{"key": <number|null>, "key": "string", ...}`. Fails the test on
 * any structural violation and returns the key/raw-value pairs.
 */
std::map<std::string, std::string>
parseFlatJsonLine(const std::string &line)
{
    std::map<std::string, std::string> out;
    std::size_t i = 0;
    auto skipWs = [&] {
        while (i < line.size() &&
               std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
    };
    auto expect = [&](char c) {
        ASSERT_LT(i, line.size()) << line;
        ASSERT_EQ(line[i], c) << "at offset " << i << ": " << line;
        ++i;
    };
    auto parseString = [&]() -> std::string {
        expect('"');
        std::string s;
        while (i < line.size() && line[i] != '"') {
            if (line[i] == '\\')
                ++i;
            s += line[i++];
        }
        expect('"');
        return s;
    };

    expect('{');
    skipWs();
    while (i < line.size() && line[i] != '}') {
        std::string key = parseString();
        skipWs();
        expect(':');
        skipWs();
        std::string value;
        if (line[i] == '"') {
            value = parseString();
        } else {
            // number or null
            while (i < line.size() && line[i] != ',' &&
                   line[i] != '}')
                value += line[i++];
            EXPECT_FALSE(value.empty()) << line;
        }
        EXPECT_EQ(out.count(key), 0u)
            << "duplicate key " << key << ": " << line;
        out[key] = value;
        skipWs();
        if (line[i] == ',') {
            ++i;
            skipWs();
        }
    }
    expect('}');
    return out;
}

TEST(GoldenTrace, OneSlotSimEmitsParseableSchema)
{
    setTelemetryLevel(TelemetryLevel::Full);
    TraceRecorder trace(1 << 14);
    setActiveTrace(&trace);

    SimConfig cfg;
    cfg.durationSeconds = 600.0; // exactly one control slot
    runOne(cfg, "TS", SchemeKind::HebD);

    setActiveTrace(nullptr);
    setTelemetryLevel(TelemetryLevel::Off);

    std::string path = test::uniqueTempPath("trace.jsonl");
    trace.writeJsonl(path);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::map<std::string, int> type_counts;
    std::string line;
    std::vector<std::map<std::string, std::string>> events;
    while (std::getline(in, line)) {
        auto obj = parseFlatJsonLine(line);
        if (::testing::Test::HasFatalFailure())
            return;
        // Every event names its time and type.
        ASSERT_TRUE(obj.count("t")) << line;
        ASSERT_TRUE(obj.count("type")) << line;
        ++type_counts[obj["type"]];
        events.push_back(std::move(obj));
    }
    std::remove(path.c_str());

    // Every simulated second is traced exactly once: as a dense tick
    // event (stride 1) or inside a quiescent fast-forward summary.
    // One plan for the single slot, one SoC sample at the boundary.
    int covered = type_counts["tick"];
    for (const auto &ev : events) {
        if (ev.at("type") == "quiescent")
            covered += static_cast<int>(std::stod(ev.at("ticks")));
    }
    EXPECT_EQ(covered, 600);
    EXPECT_EQ(type_counts["slot_plan"], 1);
    EXPECT_GE(type_counts["soc_sample"], 1);

    for (const auto &ev : events) {
        const std::string &type = ev.at("type");
        if (type == "tick") {
            for (const char *field :
                 {"demand_w", "supply_w", "sc_w", "ba_w",
                  "unserved_w", "source_draw_w"})
                EXPECT_TRUE(ev.count(field))
                    << "tick event missing " << field;
        } else if (type == "quiescent") {
            for (const char *field :
                 {"ticks", "demand_w", "supply_w", "source_wh",
                  "sc_charge_wh", "ba_charge_wh"})
                EXPECT_TRUE(ev.count(field))
                    << "quiescent event missing " << field;
        } else if (type == "soc_sample") {
            for (const char *field :
                 {"sc_soc", "ba_soc", "sc_v", "ba_v", "r_lambda"})
                EXPECT_TRUE(ev.count(field))
                    << "soc_sample event missing " << field;
        }
    }
}

TEST(GoldenTrace, SimPopulatesMetricsAcrossLayers)
{
    // Zero any accumulation from sibling tests sharing the process.
    MetricsRegistry::global().reset();
    setTelemetryLevel(TelemetryLevel::Metrics);
    SimConfig cfg;
    cfg.durationSeconds = 600.0;
    runOne(cfg, "TS", SchemeKind::HebD);
    setTelemetryLevel(TelemetryLevel::Off);

    auto names = MetricsRegistry::global().names();
    EXPECT_GE(names.size(), 15u);
    int sim = 0, esd = 0, core = 0;
    for (const auto &n : names) {
        sim += n.rfind("sim.", 0) == 0;
        esd += n.rfind("esd.", 0) == 0;
        core += n.rfind("core.", 0) == 0;
    }
    EXPECT_GE(sim, 3) << "expected sim-layer metrics";
    EXPECT_GE(esd, 3) << "expected esd-layer metrics";
    EXPECT_GE(core, 3) << "expected core-layer metrics";

    auto &reg = MetricsRegistry::global();
    EXPECT_DOUBLE_EQ(reg.counter("sim.ticks_total").value(), 600.0);
    EXPECT_DOUBLE_EQ(reg.counter("sim.runs_total").value(), 1.0);
    EXPECT_GT(reg.histogram("sim.demand_w").count(), 0u);
}

TEST(GoldenTrace, TickStrideThinsTickEventsOnly)
{
    setTelemetryLevel(TelemetryLevel::Full);
    TraceRecorder trace(1 << 14, /*tick_stride=*/60);
    setActiveTrace(&trace);

    SimConfig cfg;
    cfg.durationSeconds = 600.0;
    // Pin dense ticking: this test is about the per-tick stride.
    auto workload = SharedPlanCache::global().workload("TS", cfg.seed);
    auto scheme = makeScheme(SchemeKind::HebD);
    FleetSimulator(cfg, cfg.budgetW,
                   FleetOptions{BudgetPolicy::Static, FleetMode::Dense})
        .run({RackSpec{"rack0", workload.get(), scheme.get()}});

    setActiveTrace(nullptr);
    setTelemetryLevel(TelemetryLevel::Off);

    int ticks = 0, plans = 0;
    for (const auto &ev : trace.snapshot()) {
        ticks += ev.kind == TraceEventKind::Tick;
        plans += ev.kind == TraceEventKind::SlotPlan;
    }
    EXPECT_EQ(ticks, 10) << "600 ticks at stride 60";
    EXPECT_EQ(plans, 1) << "slot events must not be thinned";
}

} // namespace
} // namespace obs
} // namespace heb
