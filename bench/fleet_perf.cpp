/**
 * @file
 * Fleet-engine throughput bench: a 64-rack x 128-server x 24 h fleet
 * run dense (the byte-identity witness), with the event engine, and
 * with the event engine plus pooled per-tick fan-out. Every per-rack
 * SimResult is serialized through the round-trip-exact (%.17g)
 * simResultToJson witness and byte-compared against the dense leg;
 * exit status is non-zero on any difference. The timing artifact is
 * written as BENCH_fleet.json so CI can gate the event-vs-dense
 * speedup.
 *
 * Usage:
 *   fleet_perf [--quick] [--jobs N] [--out FILE]
 *
 * --quick shrinks the fleet (8 racks x 32 servers x 6 h) for CI
 * smoke runs; --jobs sets the pooled leg's width (default HEB_JOBS
 * or the machine's core count); --out overrides the JSON path.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/schemes.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "util/atomic_file.h"
#include "util/logging.h"
#include "util/mem.h"
#include "util/thread_pool.h"
#include "workload/workload_profiles.h"

using namespace heb;

namespace {

double
wallSeconds(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Calm phase-structured profile (the regime fleets live in: most
 * racks are quiescent most of the time). Jitter-free so the event
 * horizon is set by phase edges, slot boundaries and fault edges,
 * not a 5 s jitter re-hash grid.
 */
ProfileParams
rackProfile(std::size_t rack, double high_util)
{
    ProfileParams p;
    p.name = "R" + std::to_string(rack);
    p.peakClass = PeakClass::Large;
    p.highUtil = high_util;
    p.lowUtil = 0.05;
    p.highPhaseS = 900.0;
    p.lowPhaseS = 4500.0;
    p.jitter = 0.0;
    p.diurnalDepth = 0.0;
    p.serverStagger = 0.0;
    return p;
}

struct FleetScenario
{
    SimConfig cfg;
    double facilityBudgetW = 0.0;
    std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
};

FleetScenario
buildScenario(bool quick)
{
    FleetScenario s;
    s.cfg.numServers = quick ? 32 : 128;
    double bank_scale = static_cast<double>(s.cfg.numServers) / 6.0;
    s.cfg.scEnergyWh *= bank_scale;
    s.cfg.baEnergyWh *= bank_scale;
    s.cfg.durationSeconds = (quick ? 6.0 : 24.0) * 3600.0;
    // One shared fault plan stresses the all-or-nothing span logic:
    // converter trips and sensor-jitter windows hit every rack at
    // the same instants. ATS failures (outage windows on the shared
    // feed) are left off.
    s.cfg.faultInjection = true;
    s.cfg.faultPlan.atsFailuresPerDay = 0.0;

    std::size_t racks = quick ? 8 : 64;
    // ~45 W/server keeps every rack's phases quiescent with charge
    // headroom; the facility feed is the sum of rack budgets.
    s.facilityBudgetW = 45.0 *
                        static_cast<double>(s.cfg.numServers) *
                        static_cast<double>(racks);
    for (std::size_t r = 0; r < racks; ++r) {
        // Utilizations spread over [0.10, 0.30]: asymmetric racks
        // give the proportional arbiter real work every epoch.
        double high = 0.10 + 0.05 * static_cast<double>(r % 5);
        s.workloads.push_back(std::make_unique<SyntheticWorkload>(
            rackProfile(r, high), s.cfg.seed + r));
    }
    return s;
}

/**
 * Run the scenario in @p mode and return the per-rack JSONs (racks
 * are consumed and freed one at a time to bound peak memory — a
 * 24 h x 64-rack result holds ~130 MB of per-tick series).
 */
std::vector<std::string>
runLeg(const FleetScenario &s, FleetMode mode, FleetResult *agg)
{
    std::vector<std::unique_ptr<ManagementScheme>> schemes;
    std::vector<RackSpec> specs;
    for (std::size_t r = 0; r < s.workloads.size(); ++r) {
        schemes.push_back(makeScheme(SchemeKind::HebD));
        specs.push_back(RackSpec{"rack" + std::to_string(r),
                                 s.workloads[r].get(),
                                 schemes[r].get()});
    }
    FleetSimulator fleet(
        s.cfg, s.facilityBudgetW,
        FleetOptions{BudgetPolicy::Proportional, mode, true});
    FleetResult result = fleet.run(specs);

    std::vector<std::string> json;
    json.reserve(result.racks.size());
    for (SimResult &rack : result.racks) {
        json.push_back(simResultToJson(rack));
        rack = SimResult{};
    }
    result.racks.clear();
    if (agg)
        *agg = std::move(result);
    return json;
}

bool
compareLegs(const std::vector<std::string> &dense,
            const std::vector<std::string> &other, const char *label)
{
    if (dense.size() != other.size()) {
        std::printf("  %s: rack count differs\n", label);
        return false;
    }
    bool identical = true;
    for (std::size_t r = 0; r < dense.size(); ++r) {
        if (dense[r] != other[r]) {
            std::printf("  %s: rack %zu DIFFERS\n", label, r);
            identical = false;
        }
    }
    return identical;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::size_t jobs = 0; // 0 -> defaultJobs()
    std::string out_path = "BENCH_fleet.json";

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--quick")) {
            quick = true;
        } else if (!std::strcmp(argv[i], "--jobs")) {
            if (i + 1 >= argc)
                fatal("--jobs requires a value");
            long n = std::stol(argv[++i]);
            if (n < 1)
                fatal("--jobs must be >= 1");
            jobs = static_cast<std::size_t>(n);
        } else if (!std::strcmp(argv[i], "--out")) {
            if (i + 1 >= argc)
                fatal("--out requires a value");
            out_path = argv[++i];
        } else {
            fatal("usage: fleet_perf [--quick] [--jobs N] "
                  "[--out FILE]; got '",
                  argv[i], "'");
        }
    }
    if (jobs == 0)
        jobs = ThreadPool::defaultJobs();

    obs::setTelemetryLevel(obs::TelemetryLevel::Off);

    FleetScenario s = buildScenario(quick);
    const std::size_t racks = s.workloads.size();
    const double rack_ticks =
        static_cast<double>(racks) * s.cfg.durationSeconds /
        s.cfg.tickSeconds;
    std::printf("fleet_perf: %zu racks x %zu servers x %.0f h, "
                "proportional arbitration, shared fault plan\n",
                racks, s.cfg.numServers,
                s.cfg.durationSeconds / 3600.0);

    // Dense witness and the single-job event leg isolate the engine;
    // the pooled event leg adds per-tick fan-out on top.
    ThreadPool::configureGlobal(1);
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::string> dense = runLeg(s, FleetMode::Dense,
                                            nullptr);
    double dense_s = wallSeconds(t0);
    std::printf("dense  (1 job):    %7.2f s  (%.2fM rack-ticks/s)\n",
                dense_s, rack_ticks / dense_s / 1e6);

    FleetResult event_agg;
    t0 = std::chrono::steady_clock::now();
    std::vector<std::string> event = runLeg(s, FleetMode::Event,
                                            &event_agg);
    double event_s = wallSeconds(t0);
    std::printf("event  (1 job):    %7.2f s  (%.2fM rack-ticks/s), "
                "%lu macro-spans covering %lu of %.0f ticks\n",
                event_s, rack_ticks / event_s / 1e6,
                event_agg.macroSpans, event_agg.macroSpanTicks,
                s.cfg.durationSeconds / s.cfg.tickSeconds);

    ThreadPool::configureGlobal(jobs);
    t0 = std::chrono::steady_clock::now();
    std::vector<std::string> pooled = runLeg(s, FleetMode::Event,
                                             nullptr);
    double pooled_s = wallSeconds(t0);
    ThreadPool::configureGlobal(0);
    std::printf("event  (%zu jobs):  %7.2f s  (%.2fM rack-ticks/s)\n",
                jobs, pooled_s, rack_ticks / pooled_s / 1e6);

    bool identical = compareLegs(dense, event, "event") &
                     compareLegs(dense, pooled, "event+jobs");
    double speedup = event_s > 0.0 ? dense_s / event_s : 0.0;
    double speedup_jobs =
        pooled_s > 0.0 ? dense_s / pooled_s : 0.0;
    std::printf("speedup: event %.2fx, event+jobs %.2fx, per-rack "
                "results %s\n",
                speedup, speedup_jobs,
                identical ? "byte-identical" : "DIFFER");

    std::string json = "{\n";
    auto field = [&json](const char *name, double value) {
        json += "  ";
        obs::appendJsonString(json, name);
        json += ": ";
        obs::appendJsonNumber(json, value);
        json += ",\n";
    };
    field("racks", static_cast<double>(racks));
    field("servers_per_rack", static_cast<double>(s.cfg.numServers));
    field("sim_hours", s.cfg.durationSeconds / 3600.0);
    field("rack_ticks", rack_ticks);
    field("jobs", static_cast<double>(jobs));
    field("dense_seconds", dense_s);
    field("event_seconds", event_s);
    field("event_jobs_seconds", pooled_s);
    field("rack_ticks_per_second_dense", rack_ticks / dense_s);
    field("rack_ticks_per_second_event", rack_ticks / event_s);
    field("rack_ticks_per_second_event_jobs",
          rack_ticks / pooled_s);
    field("macro_spans", static_cast<double>(event_agg.macroSpans));
    field("macro_span_ticks",
          static_cast<double>(event_agg.macroSpanTicks));
    field("dense_ticks", static_cast<double>(event_agg.denseTicks));
    // Share of fleet ticks the event engine advanced in macro-spans:
    // deterministic, unlike the speedup.
    field("macro_coverage",
          static_cast<double>(event_agg.macroSpanTicks) /
              static_cast<double>(event_agg.macroSpanTicks +
                                  event_agg.denseTicks));
    field("speedup", speedup);
    field("speedup_jobs", speedup_jobs);
    // Whole-process high-water mark: all three legs share it, so it
    // reflects the heaviest leg (the dense witness's kept series).
    field("peak_rss_bytes", static_cast<double>(peakRssBytes()));
    json += "  \"quick\": ";
    json += quick ? "true" : "false";
    json += ",\n  \"identical\": ";
    json += identical ? "true" : "false";
    json += "\n}\n";

    if (!writeFileAtomic(out_path, json))
        fatal("cannot write ", out_path);
    std::printf("wrote %s\n", out_path.c_str());

    return identical ? 0 : 1;
}
