/** @file The eight Table 1 workload generators. */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "workload/workload_profiles.h"

namespace heb {
namespace {

TEST(Profiles, AllEightExist)
{
    EXPECT_EQ(allWorkloadNames().size(), 8u);
    for (const auto &name : allWorkloadNames()) {
        auto w = makeWorkload(name);
        EXPECT_EQ(w->name(), name);
    }
}

TEST(Profiles, PeakClassTaxonomyMatchesTable1)
{
    for (const auto &name : smallPeakWorkloadNames())
        EXPECT_EQ(makeWorkload(name)->peakClass(), PeakClass::Small)
            << name;
    for (const auto &name : largePeakWorkloadNames())
        EXPECT_EQ(makeWorkload(name)->peakClass(), PeakClass::Large)
            << name;
    EXPECT_EQ(smallPeakWorkloadNames().size() +
                  largePeakWorkloadNames().size(),
              allWorkloadNames().size());
}

TEST(Profiles, UnknownNameFatal)
{
    EXPECT_EXIT(makeWorkload("XX"), testing::ExitedWithCode(1),
                "Unknown workload");
}

TEST(Profiles, Deterministic)
{
    auto a = makeWorkload("TS", 5);
    auto b = makeWorkload("TS", 5);
    for (double t : {0.0, 100.0, 5000.0, 50000.0})
        EXPECT_DOUBLE_EQ(a->utilization(2, t), b->utilization(2, t));
}

TEST(Profiles, SeedChangesJitter)
{
    auto a = makeWorkload("WS", 1);
    auto b = makeWorkload("WS", 2);
    bool any_diff = false;
    for (int t = 0; t < 1000; t += 25)
        any_diff |= a->utilization(0, t) != b->utilization(0, t);
    EXPECT_TRUE(any_diff);
}

TEST(Profiles, ServersAreStaggered)
{
    auto w = makeWorkload("TS", 1);
    // At some instant near a phase edge, servers must disagree.
    bool any_diff = false;
    for (double t = 0.0; t < 6000.0; t += 60.0)
        any_diff |= std::abs(w->utilization(0, t) -
                             w->utilization(5, t)) > 0.2;
    EXPECT_TRUE(any_diff);
}

TEST(Profiles, LargePeaksAreTallerAndLonger)
{
    auto small = makeWorkload("WC");
    auto large = makeWorkload("TS");
    EXPECT_GT(large->params().highUtil, small->params().highUtil);
    EXPECT_GT(large->params().highPhaseS, small->params().highPhaseS);
}

TEST(Profiles, PeriodsDivideTheDay)
{
    // Required so Holt-Winters daily seasonality can lock on.
    for (const auto &name : allWorkloadNames()) {
        auto w = makeWorkload(name);
        double period =
            w->params().highPhaseS + w->params().lowPhaseS;
        double per_day = 86400.0 / period;
        EXPECT_NEAR(per_day, std::round(per_day), 1e-9) << name;
    }
}

class AllProfilesBounds
    : public testing::TestWithParam<std::string>
{
};

TEST_P(AllProfilesBounds, UtilizationInUnitInterval)
{
    auto w = makeWorkload(GetParam(), 3);
    for (std::size_t s = 0; s < 6; ++s) {
        for (double t = 0.0; t < 7200.0; t += 17.0) {
            double u = w->utilization(s, t);
            EXPECT_GE(u, 0.0);
            EXPECT_LE(u, 1.0);
        }
    }
}

TEST_P(AllProfilesBounds, PhasesVisible)
{
    // Both the high and the low phase must actually appear.
    auto w = makeWorkload(GetParam(), 3);
    double lo = 1.0, hi = 0.0;
    double period = w->params().highPhaseS + w->params().lowPhaseS;
    for (double t = 0.0; t < 2.0 * period; t += 5.0) {
        double u = w->utilization(0, t);
        lo = std::min(lo, u);
        hi = std::max(hi, u);
    }
    EXPECT_GT(hi - lo, 0.15);
}

INSTANTIATE_TEST_SUITE_P(Table1, AllProfilesBounds,
                         testing::Values("PR", "WC", "DA", "WS", "MS",
                                         "DFS", "HB", "TS"));

/** utilizations() at @p t must equal per-server utilization() bitwise. */
void
expectBatchMatchesScalar(const Workload &w, UtilizationCache &cache,
                         std::size_t servers, double t)
{
    std::vector<double> batch(servers, -1.0);
    std::vector<double> single(servers);
    w.utilizations(t, batch, cache);
    for (std::size_t s = 0; s < servers; ++s)
        single[s] = w.utilization(s, t);
    ASSERT_EQ(std::memcmp(batch.data(), single.data(),
                          servers * sizeof(double)),
              0)
        << w.name() << ", " << servers << " servers, t = "
        << std::setprecision(17) << t;
}

/**
 * Times on both sides of the edges the profiles are built from: every
 * second of a period (each server's staggered phase flips), 5 s jitter
 * cells approached from below and above, the diurnal sine's zero
 * crossings at 09:00 and 21:00 and its day wrap.
 */
std::vector<double>
straddlingTimes(double period)
{
    std::vector<double> ts;
    for (double t = 0.0; t <= period + 5.0; t += 1.0)
        ts.push_back(t);
    for (double edge : {5.0, 10.0, 3600.0, 9.0 * 3600.0, 21.0 * 3600.0,
                        86400.0, 2.0 * 86400.0, 7.0 * 86400.0}) {
        ts.push_back(std::nextafter(edge, 0.0));
        ts.push_back(edge);
        ts.push_back(std::nextafter(edge, 1e300));
        ts.push_back(edge - 0.5);
        ts.push_back(edge + 2.5);
    }
    return ts;
}

/** The eight Table 1 profiles at seed 42 plus a calm one. */
std::vector<std::unique_ptr<SyntheticWorkload>>
profilesWithCalm(double calm_stagger)
{
    std::vector<std::unique_ptr<SyntheticWorkload>> profiles;
    for (const auto &name : allWorkloadNames())
        profiles.push_back(makeWorkload(name, 42));
    ProfileParams calm;
    calm.name = "CALM";
    calm.highUtil = 0.30;
    calm.lowUtil = 0.05;
    calm.highPhaseS = 900.0;
    calm.lowPhaseS = 4500.0;
    calm.jitter = 0.0;
    calm.serverStagger = calm_stagger;
    profiles.push_back(std::make_unique<SyntheticWorkload>(calm, 42));
    return profiles;
}

TEST(Profiles, BatchedUtilizationsMatchPerServerBitwise)
{
    for (const auto &w : profilesWithCalm(0.15)) {
        const ProfileParams &p = w->params();
        UtilizationCache cache;
        for (std::size_t servers : {6u, 196u}) {
            for (double t : straddlingTimes(p.highPhaseS + p.lowPhaseS))
                expectBatchMatchesScalar(*w, cache, servers, t);
            if (p.jitter > 0.0 || p.diurnalDepth > 0.0)
                continue;
            // Jitter-free: walk the exact phase edges the horizon
            // query reports and probe one ulp either side of each.
            double t = 0.0;
            for (int i = 0; i < 2 * static_cast<int>(servers) + 4; ++i) {
                double edge = w->nextChangeTime(t, servers);
                for (double e : {std::nextafter(edge, 0.0), edge,
                                 std::nextafter(edge, 1e300)})
                    expectBatchMatchesScalar(*w, cache, servers, e);
                t = std::max(edge, std::nextafter(t, 1e300));
            }
        }
    }
}

TEST(Profiles, LockStepHorizonSameForEveryServerCount)
{
    // Without stagger every server flips at the same instant, so any
    // rack size names the same next edge when asked anywhere from the
    // last edge up to one ulp before the next.
    const auto profiles = profilesWithCalm(0.0);
    const SyntheticWorkload &calm = *profiles.back();
    double prev = 0.0;
    for (double edge : {900.0, 5400.0, 6300.0, 10800.0}) {
        for (double t : {prev, std::nextafter(prev, 1e300),
                         std::nextafter(edge, 0.0)}) {
            for (std::size_t servers : {1u, 6u, 128u, 196u})
                EXPECT_EQ(calm.nextChangeTime(t, servers), edge)
                    << servers << " servers at t=" << t;
        }
        prev = edge;
    }
    EXPECT_TRUE(std::isinf(calm.nextChangeTime(0.0, 0)));
}

TEST(Profiles, CachedBatchExactAcrossCellsRewindsAndServerCounts)
{
    // The calm profile here has no jitter and no stagger, so its cache
    // holds only zeros; the Table 1 profiles exercise both terms.
    for (const auto &w : profilesWithCalm(0.0)) {
        UtilizationCache cache;
        // Both sides of each 5 s jitter-cell boundary, in time order.
        for (int cell = 1; cell <= 40; ++cell) {
            double edge = 5.0 * cell;
            for (double t : {edge - 2.5, std::nextafter(edge, 0.0), edge,
                             std::nextafter(edge, 1e300), edge + 0.5})
                expectBatchMatchesScalar(*w, cache, 16, t);
        }
        // Earlier times after later ones: the cache keys on the jitter
        // cell, not on time moving forward.
        for (double t : {86400.0, 3.0, 86399.0, 4.999, 86400.0, 0.0})
            expectBatchMatchesScalar(*w, cache, 16, t);
        // One cache reused at other server counts, inside one cell and
        // across cells.
        for (std::size_t servers : {6u, 196u, 16u, 196u, 1u})
            expectBatchMatchesScalar(*w, cache, servers, 1234.5);
        for (std::size_t servers : {6u, 196u, 16u})
            expectBatchMatchesScalar(*w, cache, servers,
                                     1234.5 + 5.0 * servers);
    }
}

TEST(Profiles, CacheHandedToAnotherWorkloadRefills)
{
    auto pr = makeWorkload("PR", 42);
    auto pr_other_seed = makeWorkload("PR", 7);
    auto ts = makeWorkload("TS", 42);
    UtilizationCache cache;
    for (double t : {10.0, 11.0, 12.0, 400.0}) {
        expectBatchMatchesScalar(*pr, cache, 16, t);
        expectBatchMatchesScalar(*pr_other_seed, cache, 16, t);
        expectBatchMatchesScalar(*ts, cache, 16, t);
    }
}

/**
 * FNV-1a (64-bit) over the %.17g rendering of each value added, each
 * followed by ';'. std::to_chars with general format and precision 17
 * prints exactly as %.17g does, at a third of snprintf's cost. Each
 * value goes to a slot, and a value bitwise equal to the slot's last
 * one reuses its rendering: utilization holds across a 5 s jitter
 * cell.
 */
class SlotDigest
{
  public:
    explicit SlotDigest(std::size_t slots) : slots_(slots) {}

    void
    add(std::size_t slot, double v)
    {
        Slot &s = slots_[slot];
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        if (s.len == 0 || bits != s.bits) {
            s.bits = bits;
            char *end = std::to_chars(s.text, s.text + sizeof s.text, v,
                                      std::chars_format::general, 17)
                            .ptr;
            *end++ = ';';
            s.len = static_cast<int>(end - s.text);
        }
        for (int i = 0; i < s.len; ++i) {
            h_ ^= static_cast<unsigned char>(s.text[i]);
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    struct Slot
    {
        std::uint64_t bits = 0;
        int len = 0;
        char text[40];
    };

    std::vector<Slot> slots_;
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

TEST(Profiles, UtilizationDigestPinned)
{
    // All eight Table 1 profiles at seed 42, every 1 s tick of 48 h:
    // utilizations() for 16 servers and nextChangeTime(t, 16), folded
    // into one digest. The batched-vs-scalar check above cannot catch
    // a change in the phase reduction, since both of its paths share
    // it; this pins the values themselves. Recorded on x86-64 Linux
    // with glibc's libm.
    constexpr std::size_t kServers = 16;
    SlotDigest digest(kServers + 1);
    std::vector<double> util(kServers);
    for (const auto &name : allWorkloadNames()) {
        auto w = makeWorkload(name, 42);
        UtilizationCache cache;
        for (int tick = 0; tick < 48 * 3600; ++tick) {
            double t = tick;
            w->utilizations(t, util, cache);
            for (std::size_t s = 0; s < kServers; ++s)
                digest.add(s, util[s]);
            digest.add(kServers, w->nextChangeTime(t, kServers));
        }
    }
    EXPECT_EQ(digest.value(), 0xc64f3b7738a1e0c5ull);
}

TEST(Profiles, InvalidShapeRejected)
{
    ProfileParams p;
    p.name = "bad";
    p.highUtil = 0.2;
    p.lowUtil = 0.5;
    EXPECT_EXIT(SyntheticWorkload(p, 1), testing::ExitedWithCode(1),
                "highUtil");
}

TEST(Profiles, PeakClassNames)
{
    EXPECT_STREQ(peakClassName(PeakClass::Small), "small");
    EXPECT_STREQ(peakClassName(PeakClass::Large), "large");
}

} // namespace
} // namespace heb
