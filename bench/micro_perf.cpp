/**
 * @file
 * Hot-path microbenchmarks (google-benchmark): battery/SC step,
 * dispatch, predictor update, PAT lookup, and a full simulator day.
 * These guard the simulator's throughput — a day of 1 s ticks must
 * stay well under a second so the evaluation sweeps remain cheap.
 */

#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/load_assignment.h"
#include "core/pat.h"
#include "core/predictor.h"
#include "core/schemes.h"
#include "dc/cluster.h"
#include "esd/bank_builder.h"
#include "esd/battery.h"
#include "esd/supercapacitor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/experiment.h"
#include "util/thread_pool.h"
#include "workload/workload_profiles.h"

namespace heb {
namespace {

void
BM_BatteryDischargeStep(benchmark::State &state)
{
    Battery b(BatteryParams::prototypeLeadAcid());
    for (auto _ : state) {
        benchmark::DoNotOptimize(b.discharge(40.0, 1.0));
        if (b.soc() < 0.4)
            b.setSoc(1.0);
    }
}
BENCHMARK(BM_BatteryDischargeStep);

// Same step with an alternating dt: every call misses the memoized
// exp(-k*dt) terms. The gap against BM_BatteryDischargeStep (which
// reuses a constant dt, the simulator's actual pattern) is the value
// of the KiBaM step-term cache.
void
BM_BatteryDischargeStepVaryingDt(benchmark::State &state)
{
    Battery b(BatteryParams::prototypeLeadAcid());
    double dt = 1.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(b.discharge(40.0, dt));
        dt = dt == 1.0 ? 2.0 : 1.0;
        if (b.soc() < 0.4)
            b.setSoc(1.0);
    }
}
BENCHMARK(BM_BatteryDischargeStepVaryingDt);

void
BM_SupercapDischargeStep(benchmark::State &state)
{
    Supercapacitor sc(ScParams::maxwellSeriesBank());
    for (auto _ : state) {
        benchmark::DoNotOptimize(sc.discharge(100.0, 1.0));
        if (sc.soc() < 0.2)
            sc.setSoc(1.0);
    }
}
BENCHMARK(BM_SupercapDischargeStep);

void
BM_DispatchMismatch(benchmark::State &state)
{
    Supercapacitor sc(ScParams::maxwellSeriesBank());
    Battery ba(BatteryParams::prototypeLeadAcid());
    for (auto _ : state) {
        DispatchResult res =
            dispatchMismatch(sc, ba, 140.0, 0.6, 1.0, 140.0);
        benchmark::DoNotOptimize(res);
        if (sc.soc() < 0.2) {
            sc.setSoc(1.0);
            ba.setSoc(1.0);
        }
    }
}
BENCHMARK(BM_DispatchMismatch);

// The PAT valley step: SC-first charge dispatch of a 40 W surplus over
// the default banks (two SC modules, two battery strings). Planning,
// the pool's proportional split and each device's clamp all read the
// battery's charge ceiling; the device memo evaluates it once a step.
void
BM_DispatchChargeBanks(benchmark::State &state)
{
    SimConfig cfg;
    auto sc = makeScBank(cfg.scEnergyWh, cfg.scDod);
    auto ba = makeBatteryBank(cfg.baEnergyWh, cfg.baDod);
    sc->setSoc(0.2);
    ba->setSoc(0.3);
    for (auto _ : state) {
        ChargeResult res = dispatchCharge(*sc, *ba, 40.0, true, 1.0);
        benchmark::DoNotOptimize(res);
        if (ba->soc() > 0.85) {
            sc->setSoc(0.2);
            ba->setSoc(0.3);
        }
    }
}
BENCHMARK(BM_DispatchChargeBanks);

void
BM_HoltWintersObserve(benchmark::State &state)
{
    HoltWintersPredictor p;
    double v = 0.0;
    for (auto _ : state) {
        p.observe(200.0 + v);
        v = v > 100.0 ? 0.0 : v + 1.0;
        benchmark::DoNotOptimize(p.predict());
    }
}
BENCHMARK(BM_HoltWintersObserve);

void
BM_PatLookupSimilar(benchmark::State &state)
{
    PowerAllocationTable pat;
    for (double sc = 0.0; sc <= 30.0; sc += 5.0) {
        for (double ba = 0.0; ba <= 60.0; ba += 10.0) {
            for (double pm = 60.0; pm <= 200.0; pm += 20.0)
                pat.seed(sc, ba, pm, 0.5);
        }
    }
    state.counters["entries"] =
        static_cast<double>(pat.size());
    double key = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pat.lookupSimilar(13.0 + key, 37.0, 143.0));
        key = key > 10.0 ? 0.0 : key + 0.1;
    }
}
BENCHMARK(BM_PatLookupSimilar);

void
BM_WorkloadUtilization(benchmark::State &state)
{
    auto w = makeWorkload("TS");
    double t = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(w->utilization(3, t));
        t += 1.0;
    }
}
BENCHMARK(BM_WorkloadUtilization);

// One rack's utilizations: batched WC utilizations for six servers,
// with the per-server terms cached as RackDomain caches them.
void
BM_WorkloadUtilizations(benchmark::State &state)
{
    auto w = makeWorkload("WC");
    UtilizationCache cache;
    double util[6];
    double t = 0.0;
    for (auto _ : state) {
        w->utilizations(t, util, cache);
        benchmark::DoNotOptimize(util);
        benchmark::ClobberMemory();
        t += 1.0;
    }
}
BENCHMARK(BM_WorkloadUtilizations);

// The fleet_table1 rack shape's demand step: cached WC utilizations
// for 196 servers plus the cluster's fused activity-and-power pass.
void
BM_WorkloadRackDemand(benchmark::State &state)
{
    constexpr std::size_t kServers = 196;
    auto w = makeWorkload("WC");
    UtilizationCache cache;
    Cluster cluster(kServers);
    cluster.setFrequency(Cluster::Frequency::Low);
    std::vector<double> util(kServers);
    double t = 0.0;
    for (auto _ : state) {
        w->utilizations(t, util, cache);
        benchmark::DoNotOptimize(cluster.demandW(util, t));
        t += 1.0;
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kServers));
}
BENCHMARK(BM_WorkloadRackDemand);

void
BM_SimulatorDay(benchmark::State &state)
{
    obs::setTelemetryLevel(obs::TelemetryLevel::Off);
    SimConfig cfg;
    cfg.durationSeconds = 24.0 * 3600.0;
    for (auto _ : state) {
        auto workload = makeWorkload("WC");
        auto scheme = makeScheme(SchemeKind::HebD);
        SimResult r = Simulator(cfg).run(*workload, *scheme);
        benchmark::DoNotOptimize(r.energyEfficiency);
    }
    state.SetItemsProcessed(state.iterations() * 86400);
}
BENCHMARK(BM_SimulatorDay)->Unit(benchmark::kMillisecond);

// Same day with metrics on, then with full per-tick tracing: the gap
// against BM_SimulatorDay is the telemetry tax. With telemetry Off
// the tick loop must stay within noise (<=2%) of the uninstrumented
// baseline — the hot-path guard is one relaxed atomic load.
void
BM_SimulatorDayMetrics(benchmark::State &state)
{
    obs::setTelemetryLevel(obs::TelemetryLevel::Metrics);
    SimConfig cfg;
    cfg.durationSeconds = 24.0 * 3600.0;
    for (auto _ : state) {
        auto workload = makeWorkload("WC");
        auto scheme = makeScheme(SchemeKind::HebD);
        SimResult r = Simulator(cfg).run(*workload, *scheme);
        benchmark::DoNotOptimize(r.energyEfficiency);
    }
    state.SetItemsProcessed(state.iterations() * 86400);
    obs::setTelemetryLevel(obs::TelemetryLevel::Off);
}
BENCHMARK(BM_SimulatorDayMetrics)->Unit(benchmark::kMillisecond);

void
BM_SimulatorDayFullTrace(benchmark::State &state)
{
    obs::setTelemetryLevel(obs::TelemetryLevel::Full);
    obs::TraceRecorder trace(1 << 16);
    obs::setActiveTrace(&trace);
    SimConfig cfg;
    cfg.durationSeconds = 24.0 * 3600.0;
    for (auto _ : state) {
        auto workload = makeWorkload("WC");
        auto scheme = makeScheme(SchemeKind::HebD);
        SimResult r = Simulator(cfg).run(*workload, *scheme);
        benchmark::DoNotOptimize(r.energyEfficiency);
    }
    state.SetItemsProcessed(state.iterations() * 86400);
    obs::setActiveTrace(nullptr);
    obs::setTelemetryLevel(obs::TelemetryLevel::Off);
}
BENCHMARK(BM_SimulatorDayFullTrace)->Unit(benchmark::kMillisecond);

// Pool dispatch overhead: an ordered map of trivial tasks measures
// the fixed cost of the batch machinery (queue, wakeups, completion
// wait) that every sweep cell pays on top of its simulation work.
void
BM_ThreadPoolMapOverhead(benchmark::State &state)
{
    ThreadPool pool(4);
    std::vector<int> items(64);
    for (int i = 0; i < 64; ++i)
        items[static_cast<std::size_t>(i)] = i;
    for (auto _ : state) {
        auto out = pool.map(items, [](int v) { return v * 2; });
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ThreadPoolMapOverhead);

// One fleet-tick hand-off: a 16-index batch of empty tasks on a
// 2-lane pool, the shape of fleet_table1's per-tick fan-out. The
// tasks do nothing, so this is the batch's fixed cost alone.
void
BM_PoolForEachIndexHandoff(benchmark::State &state)
{
    ThreadPool pool(2);
    for (auto _ : state)
        pool.forEachIndex(16, [](std::size_t i) {
            benchmark::DoNotOptimize(i);
        });
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolForEachIndexHandoff);

// A pool map of real simulation work: eight two-hour runs, the shape
// of one sweep row. Compare items_per_second against a 1-job pool to
// read the machine's usable sweep speedup.
void
BM_ThreadPoolMapSimRuns(benchmark::State &state)
{
    obs::setTelemetryLevel(obs::TelemetryLevel::Off);
    ThreadPool pool(static_cast<std::size_t>(state.range(0)));
    SimConfig cfg;
    cfg.durationSeconds = 2.0 * 3600.0;
    const auto &names = allWorkloadNames();
    for (auto _ : state) {
        auto out = pool.map(names, [&](const std::string &w) {
            return runOne(cfg, w, SchemeKind::ScFirst);
        });
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(names.size()));
}
BENCHMARK(BM_ThreadPoolMapSimRuns)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_CounterAddEnabled(benchmark::State &state)
{
    obs::setTelemetryLevel(obs::TelemetryLevel::Metrics);
    auto &c =
        obs::MetricsRegistry::global().counter("bench.counter_add");
    for (auto _ : state)
        c.add(1.5);
    obs::setTelemetryLevel(obs::TelemetryLevel::Off);
}
BENCHMARK(BM_CounterAddEnabled);

void
BM_CounterAddDisabled(benchmark::State &state)
{
    obs::setTelemetryLevel(obs::TelemetryLevel::Off);
    auto &c =
        obs::MetricsRegistry::global().counter("bench.counter_add");
    for (auto _ : state)
        c.add(1.5);
}
BENCHMARK(BM_CounterAddDisabled);

void
BM_HistogramRecordEnabled(benchmark::State &state)
{
    obs::setTelemetryLevel(obs::TelemetryLevel::Metrics);
    auto &h = obs::MetricsRegistry::global().histogram(
        "bench.hist_record");
    double v = 0.0;
    for (auto _ : state) {
        h.record(v);
        v = v > 1.0e6 ? 0.0 : v * 1.7 + 1.0;
    }
    obs::setTelemetryLevel(obs::TelemetryLevel::Off);
}
BENCHMARK(BM_HistogramRecordEnabled);

} // namespace
} // namespace heb

BENCHMARK_MAIN();
