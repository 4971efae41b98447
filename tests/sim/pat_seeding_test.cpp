/**
 * @file Seeded PAT tables: pinned digests per bank layout, cells
 * raced only on first read, and lazy tables that act exactly like
 * fully materialized ones.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/schemes.h"
#include "obs/metrics.h"
#include "sim/experiment.h"
#include "sim/pat_cache.h"
#include "sim/simulator.h"
#include "test_paths.h"
#include "workload/workload_profiles.h"

namespace heb {
namespace {

/** FNV-1a over every entry rendered with %.17g. */
std::uint64_t
entryDigest(const std::vector<PatEntry> &entries)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    char buf[160];
    for (const PatEntry &e : entries) {
        std::snprintf(buf, sizeof buf, "%.17g;%.17g;%.17g;%.17g;%lu;",
                      e.scWh, e.baWh, e.mismatchW, e.rLambda, e.updates);
        for (const char *s = buf; *s; ++s) {
            h ^= static_cast<unsigned char>(*s);
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

/** The bank layouts pinned below: the default and three DoD legs. */
const double kLayouts[] = {0.0, 0.4, 0.6, 0.8};

/** Layout @p dod; 0 keeps the default (scDod 1, baDod 0.8). */
SimConfig
layout(double dod)
{
    SimConfig cfg;
    if (dod > 0.0) {
        cfg.scDod = dod;
        cfg.baDod = dod;
    }
    return cfg;
}

/** The grid makeScheme gives HEB-S: four default steps per axis. */
PatGrid
coarseGrid()
{
    PatGrid g = HebSchemeConfig{}.patGrid;
    g.scStepWh *= 4.0;
    g.baStepWh *= 4.0;
    g.pmStepW *= 4.0;
    return g;
}

/** The HEB-S table built from @p seeded, as makeScheme builds it. */
std::vector<PatEntry>
coarseEntries(const PowerAllocationTable &seeded)
{
    auto scheme = makeScheme(SchemeKind::HebS, HebSchemeConfig{}, &seeded);
    return dynamic_cast<const HebScheme &>(*scheme).pat().entries();
}

/** A layout's seeded tables, fully materialized. */
struct Materialized
{
    std::vector<PatEntry> fine;
    std::vector<PatEntry> coarse;
};

/**
 * The materialized tables of layout @p dod, built once per process:
 * materializing races every cell, so the tests below share it.
 */
const Materialized &
materialized(double dod)
{
    static std::map<double, Materialized> cache;
    auto it = cache.find(dod);
    if (it == cache.end()) {
        PowerAllocationTable pat =
            buildSeededPat(layout(dod), HebSchemeConfig{});
        Materialized m;
        m.coarse = coarseEntries(pat);
        m.fine = pat.entries();
        it = cache.emplace(dod, std::move(m)).first;
    }
    return it->second;
}

/** core.profiler_races_total since construction, metrics on meanwhile. */
class RaceCount
{
  public:
    RaceCount() : prior_(obs::telemetryLevel())
    {
        obs::setTelemetryLevel(
            std::max(prior_, obs::TelemetryLevel::Metrics));
        start_ = total();
    }

    ~RaceCount() { obs::setTelemetryLevel(prior_); }

    double operator()() const { return total() - start_; }

  private:
    static double
    total()
    {
        return obs::MetricsRegistry::global()
            .counter("core.profiler_races_total")
            .value();
    }

    obs::TelemetryLevel prior_;
    double start_ = 0.0;
};

TEST(PatSeeding, FineAndCoarseDigestsPinned)
{
    // The fine seeded table of each layout and the HEB-S table
    // averaged from it. Any change to the races, the candidate
    // choice, the key order or the averaging moves a digest.
    // Recorded on x86-64 Linux with glibc's libm.
    struct Pin
    {
        double dod;
        std::size_t fineSize;
        std::uint64_t fine;
        std::size_t coarseSize;
        std::uint64_t coarse;
    };
    const Pin pins[] = {
        {0.0, 63u, 0x823621a873e36d12ull, 12u, 0xd5236e678a593f33ull},
        {0.4, 42u, 0xe104fe792e5e9889ull, 12u, 0x2ac2dfb399fd864eull},
        {0.6, 63u, 0xc07f7d1f34293a2cull, 12u, 0xa7faf64bfe77d18bull},
        {0.8, 63u, 0xdc6fc6a5710ce919ull, 6u, 0x5543b3b7533a954eull},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(testing::Message() << "dod " << pin.dod);
        const Materialized &m = materialized(pin.dod);
        std::uint64_t fine = entryDigest(m.fine);
        std::uint64_t coarse = entryDigest(m.coarse);
        EXPECT_EQ(m.fine.size(), pin.fineSize);
        EXPECT_EQ(fine, pin.fine) << std::hex << fine;
        EXPECT_EQ(m.coarse.size(), pin.coarseSize);
        EXPECT_EQ(coarse, pin.coarse) << std::hex << coarse;
    }
}

TEST(PatSeeding, HebDPatCsvBytesPinned)
{
    // heb_sim --scheme HEB-D --workload TS --pat FILE on a fresh FILE:
    // seed, run 48 h, save the refined table. The FNV-1a digest of
    // the saved bytes pins the whole path, learned entries included.
    SimConfig cfg;
    HebSchemeConfig scheme_cfg;
    PowerAllocationTable pat = buildSeededPat(cfg, scheme_cfg);
    auto workload = makeWorkload("TS", cfg.seed);
    auto scheme = makeScheme(SchemeKind::HebD, scheme_cfg, &pat);
    Simulator sim(cfg);
    sim.run(*workload, *scheme);

    const std::string path = test::uniqueTempPath("pat.csv");
    const auto &heb = dynamic_cast<const HebScheme &>(*scheme);
    heb.pat().saveCsv(path);
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    EXPECT_EQ(heb.pat().size(), 83u);
    EXPECT_EQ(bytes.size(), 2320u);
    EXPECT_EQ(h, 0x835c176291c14157ull) << std::hex << h;
}

TEST(PatSeeding, CellsRaceOnFirstRead)
{
    const std::vector<PatEntry> &keys = materialized(0.0).fine;
    const HebSchemeConfig scheme_cfg;
    RaceCount races;
    PowerAllocationTable pat = buildSeededPat(SimConfig{}, scheme_cfg);
    PowerAllocationTable copy = pat;
    EXPECT_EQ(pat.size(), 63u);
    EXPECT_EQ(races(), 0.0) << "an unread table races nothing";

    // An exact hit races its cell's 11 candidates, once for every
    // copy of the table.
    const PatEntry &hit = keys[5];
    EXPECT_EQ(pat.lookupExact(hit.scWh, hit.baWh, hit.mismatchW),
              hit.rLambda);
    EXPECT_EQ(races(), 11.0);
    EXPECT_EQ(copy.lookupExact(hit.scWh, hit.baWh, hit.mismatchW),
              hit.rLambda);
    EXPECT_EQ(races(), 11.0);

    // A nearest-neighbour read races the winner only.
    const PatEntry &near = keys[20];
    double off_grid = near.scWh + 0.1 * scheme_cfg.patGrid.scStepWh;
    EXPECT_EQ(copy.lookupSimilar(off_grid, near.baWh, near.mismatchW),
              near.rLambda);
    EXPECT_EQ(races(), 22.0);

    // A nudge races the seeded entry, then keeps its value in the
    // nudged copy alone. The SC side drained: lean on the battery.
    const PatEntry &nudged = keys[40];
    copy.recordOutcome(nudged.scWh, nudged.baWh, nudged.mismatchW, 0.5,
                       0.0, nudged.baWh);
    EXPECT_EQ(races(), 33.0);
    EXPECT_EQ(copy.lookupExact(nudged.scWh, nudged.baWh, nudged.mismatchW),
              std::max(0.0, nudged.rLambda - scheme_cfg.deltaR));
    EXPECT_EQ(pat.lookupExact(nudged.scWh, nudged.baWh, nudged.mismatchW),
              nudged.rLambda);
    EXPECT_EQ(races(), 33.0);

    // Reading the whole table races every cell not yet read.
    EXPECT_EQ(entryDigest(pat.entries()), entryDigest(keys));
    EXPECT_EQ(races(), 693.0);
}

TEST(PatSeeding, SharedTableRacesEachCellOnceAcrossThreads)
{
    const std::vector<PatEntry> &keys = materialized(0.0).fine;
    auto &cache = SeededPatCache::global();
    cache.clear();
    RaceCount races;
    std::shared_ptr<const PowerAllocationTable> shared =
        cache.get(SimConfig{}, HebSchemeConfig{});
    EXPECT_EQ(races(), 0.0);

    // Four copies read every cell, each from a different start, so
    // threads meet on cells both before and while one is racing.
    constexpr std::size_t kThreads = 4;
    std::vector<std::vector<double>> seen(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            PowerAllocationTable copy = *shared;
            for (std::size_t i = 0; i < keys.size(); ++i) {
                const PatEntry &k = keys[(i + 16 * t) % keys.size()];
                seen[t].push_back(
                    copy.lookupExact(k.scWh, k.baWh, k.mismatchW)
                        .value_or(-1.0));
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(races(), 693.0);
    for (std::size_t t = 0; t < kThreads; ++t) {
        for (std::size_t i = 0; i < keys.size(); ++i) {
            EXPECT_EQ(seen[t][i], keys[(i + 16 * t) % keys.size()].rLambda)
                << "thread " << t << " read " << i;
        }
    }
    EXPECT_EQ(entryDigest(shared->entries()), entryDigest(keys));
    EXPECT_EQ(races(), 693.0);
    cache.clear();
}

TEST(PatSeeding, CoarseReadRacesItsFineContributors)
{
    const Materialized &m = materialized(0.0);
    const PatGrid coarse = coarseGrid();
    auto coarse_key = [&coarse](const PatEntry &e) {
        auto q = [](double v, double step) {
            return std::round(v / step) * step;
        };
        return std::vector<double>{q(e.scWh, coarse.scStepWh),
                                   q(e.baWh, coarse.baStepWh),
                                   q(e.mismatchW, coarse.pmStepW)};
    };
    RaceCount races;
    PowerAllocationTable pat = buildSeededPat(SimConfig{}, HebSchemeConfig{});
    auto scheme = makeScheme(SchemeKind::HebS, HebSchemeConfig{}, &pat);
    const PowerAllocationTable &heb_s =
        dynamic_cast<const HebScheme &>(*scheme).pat();
    EXPECT_EQ(races(), 0.0);
    for (const PatEntry &cell : m.coarse) {
        auto contributors = std::count_if(
            m.fine.begin(), m.fine.end(), [&](const PatEntry &e) {
                return coarse_key(e) == coarse_key(cell);
            });
        double before = races();
        EXPECT_EQ(heb_s.lookupExact(cell.scWh, cell.baWh, cell.mismatchW),
                  cell.rLambda);
        EXPECT_EQ(races() - before, 11.0 * static_cast<double>(contributors));
    }
    EXPECT_EQ(races(), 693.0);
}

TEST(PatSeeding, LazyAndMaterializedTablesAgree)
{
    // The same seeded sequence of lookups and outcomes on a lazy
    // table and on its materialized twin, fine and HEB-S coarse.
    const HebSchemeConfig scheme_cfg;
    for (double dod : kLayouts) {
        SCOPED_TRACE(testing::Message() << "dod " << dod);
        const Materialized &m = materialized(dod);
        PowerAllocationTable lazy = buildSeededPat(layout(dod), scheme_cfg);
        PowerAllocationTable plain(scheme_cfg.patGrid, scheme_cfg.deltaR);
        plain.restoreEntries(m.fine);
        PowerAllocationTable lazy_coarse = lazy.requantized(coarseGrid());
        PowerAllocationTable plain_coarse = plain.requantized(coarseGrid());

        std::mt19937_64 rng(42);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        auto bits = [](std::optional<double> r) {
            return r ? std::bit_cast<std::uint64_t>(*r) : ~0ull;
        };
        std::size_t lookups = 0, outcomes = 0, mismatches = 0;
        for (int i = 0; i < 2000; ++i) {
            // Half the queries sit near a seeded key, half anywhere.
            double sc, ba, pm;
            if (unit(rng) < 0.5) {
                const PatEntry &k = m.fine[rng() % m.fine.size()];
                sc = k.scWh + 4.0 * (unit(rng) - 0.5);
                ba = k.baWh + 8.0 * (unit(rng) - 0.5);
                pm = k.mismatchW + 16.0 * (unit(rng) - 0.5);
            } else {
                sc = 35.0 * unit(rng);
                ba = 70.0 * unit(rng);
                pm = 60.0 + 160.0 * unit(rng);
            }
            if (unit(rng) < 0.6) {
                ++lookups;
                mismatches += bits(lazy.lookup(sc, ba, pm)) !=
                              bits(plain.lookup(sc, ba, pm));
                mismatches += bits(lazy_coarse.lookup(sc, ba, pm)) !=
                              bits(plain_coarse.lookup(sc, ba, pm));
            } else {
                ++outcomes;
                double r = unit(rng);
                double sc_end = sc * unit(rng);
                double ba_end = unit(rng) < 0.1 ? 0.0 : ba * unit(rng);
                lazy.recordOutcome(sc, ba, pm, r, sc_end, ba_end);
                plain.recordOutcome(sc, ba, pm, r, sc_end, ba_end);
            }
        }
        EXPECT_GT(lookups, 1000u);
        EXPECT_GT(outcomes, 600u);
        EXPECT_EQ(mismatches, 0u);
        EXPECT_EQ(lazy.size(), plain.size());
        EXPECT_EQ(entryDigest(lazy.entries()), entryDigest(plain.entries()));
        EXPECT_EQ(entryDigest(lazy_coarse.entries()),
                  entryDigest(plain_coarse.entries()));
    }
}

} // namespace
} // namespace heb
