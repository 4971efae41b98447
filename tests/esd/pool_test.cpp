/** @file EsdPool aggregation semantics. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "esd/bank_builder.h"
#include "esd/battery.h"
#include "esd/esd_pool.h"
#include "esd/supercapacitor.h"

namespace heb {
namespace {

std::unique_ptr<EsdPool>
twoBatteryPool()
{
    auto pool = std::make_unique<EsdPool>("test-pool");
    pool->add(std::make_unique<Battery>(
        BatteryParams::prototypeLeadAcid()));
    pool->add(std::make_unique<Battery>(
        BatteryParams::prototypeLeadAcid()));
    return pool;
}

/**
 * Hand-stepped twin of a pool: the documented proportional split
 * applied member by member through device(i), never through the
 * pool's own stepping methods.
 */
class HandStepped
{
  public:
    explicit HandStepped(EsdPool &members) : m_(members) {}

    double discharge(double watts, double dt)
    {
        return split(watts, dt, true);
    }

    double charge(double watts, double dt)
    {
        return split(watts, dt, false);
    }

    void rest(double dt)
    {
        for (std::size_t i = 0; i < m_.deviceCount(); ++i)
            m_.device(i).rest(dt);
    }

  private:
    double split(double watts, double dt, bool out)
    {
        std::vector<double> caps;
        double total = 0.0;
        for (std::size_t i = 0; i < m_.deviceCount(); ++i) {
            EnergyStorageDevice &d = m_.device(i);
            caps.push_back(out ? d.maxDischargePowerW(dt)
                               : d.maxChargePowerW(dt));
            total += caps.back();
        }
        if (total <= 0.0 || watts <= 0.0) {
            rest(dt);
            return 0.0;
        }
        double target = std::min(watts, total);
        double moved = 0.0;
        for (std::size_t i = 0; i < m_.deviceCount(); ++i) {
            EnergyStorageDevice &d = m_.device(i);
            double share = target * caps[i] / total;
            if (share <= 0.0)
                d.rest(dt);
            else
                moved += out ? d.discharge(share, dt)
                             : d.charge(share, dt);
        }
        return moved;
    }

    EsdPool &m_;
};

/** Appends values to a %.17g fingerprint. */
struct Fingerprint
{
    std::string text;

    void add(double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g\n", v);
        text += buf;
    }

    void addCounters(const EsdCounters &c)
    {
        add(c.dischargeEnergyWh);
        add(c.chargeEnergyWh);
        add(c.lossEnergyWh);
        add(c.dischargeAh);
        add(c.chargeAh);
        add(static_cast<double>(c.directionChanges));
    }
};

/** The pool's own aggregate reads. */
std::string
poolAggregates(const EsdPool &pool)
{
    Fingerprint f;
    f.add(pool.soc());
    f.add(pool.usableEnergyWh());
    f.add(pool.maxDischargePowerW(1.0));
    f.add(pool.maxChargePowerW(1.0));
    f.add(pool.terminalVoltage(50.0));
    f.add(pool.lifetimeFractionUsed());
    f.addCounters(pool.counters());
    return f.text;
}

/** The same aggregates folded by hand from the members. */
std::string
handAggregates(const EsdPool &members)
{
    std::size_t n = members.deviceCount();
    double cap = 0.0, soc_wh = 0.0, usable = 0.0;
    double max_out = 0.0, max_in = 0.0, life = 0.0;
    EsdCounters c;
    for (std::size_t i = 0; i < n; ++i) {
        const EnergyStorageDevice &d = members.device(i);
        cap += d.capacityWh();
        usable += d.usableEnergyWh();
        max_out += d.maxDischargePowerW(1.0);
        max_in += d.maxChargePowerW(1.0);
        life = std::max(life, d.lifetimeFractionUsed());
        const EsdCounters &m = d.counters();
        c.dischargeEnergyWh += m.dischargeEnergyWh;
        c.chargeEnergyWh += m.chargeEnergyWh;
        c.lossEnergyWh += m.lossEnergyWh;
        c.dischargeAh += m.dischargeAh;
        c.chargeAh += m.chargeAh;
        c.directionChanges += m.directionChanges;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const EnergyStorageDevice &d = members.device(i);
        soc_wh += d.soc() * d.capacityWh();
    }
    // Weakest member under its capability share of a 50 W load.
    double v_min = members.device(0).terminalVoltage(0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const EnergyStorageDevice &d = members.device(i);
        double share =
            max_out > 0.0 ? 50.0 * d.maxDischargePowerW(1.0) / max_out
                          : 0.0;
        v_min = std::min(v_min, d.terminalVoltage(share));
    }
    Fingerprint f;
    f.add(soc_wh / cap);
    f.add(usable);
    f.add(max_out);
    f.add(max_in);
    f.add(v_min);
    f.add(life);
    f.addCounters(c);
    return f.text;
}

/** Every member's state, read through device(i). */
std::string
memberFingerprint(const EsdPool &pool)
{
    Fingerprint f;
    for (std::size_t i = 0; i < pool.deviceCount(); ++i) {
        const EnergyStorageDevice &d = pool.device(i);
        f.add(d.soc());
        f.add(d.usableEnergyWh());
        f.add(d.lifetimeFractionUsed());
        f.addCounters(d.counters());
    }
    return f.text;
}

/**
 * A deterministic mixed duty cycle: discharge bursts, charge
 * recovery, rests, with tick-varying power so the rate limits bind
 * on different members over time. Returns every step's result.
 */
template <typename Stepper>
std::string
runScript(Stepper &&stepper, std::size_t ticks, double watts_scale)
{
    std::string out;
    char buf[64];
    for (std::size_t j = 0; j < ticks; ++j) {
        double frac = 0.3 + 0.6 * static_cast<double>(j % 53) / 52.0;
        std::size_t phase = j % 90;
        double got = 0.0;
        if (phase < 40)
            got = stepper.discharge(watts_scale * frac, 1.0);
        else if (phase < 80)
            got = stepper.charge(watts_scale * frac, 1.0);
        else
            stepper.rest(1.0);
        std::snprintf(buf, sizeof buf, "%.17g\n", got);
        out += buf;
    }
    return out;
}

constexpr std::size_t kMembers = 5;

std::unique_ptr<EsdPool>
batteryPool(bool aging = false)
{
    return makeBatteryBank(400.0 * kMembers, 0.8, kMembers, aging);
}

std::unique_ptr<EsdPool>
scPool()
{
    return makeScBank(30.0 * kMembers, 1.0, kMembers);
}

std::unique_ptr<EsdPool>
mixedPool()
{
    auto pool = std::make_unique<EsdPool>("mixed");
    pool->add(std::make_unique<Battery>(
        BatteryParams::prototypeLeadAcid()));
    BatteryParams other = BatteryParams::prototypeLeadAcid();
    other.capacityAh *= 2.0;
    pool->add(std::make_unique<Battery>(other));
    pool->add(std::make_unique<Supercapacitor>(ScParams{}));
    return pool;
}

/**
 * Drive @p pool and a hand-stepped twin (built by the same @p make)
 * through the duty script, with @p between applied to each halfway,
 * and require byte-identical step results, member state and
 * aggregates.
 */
template <typename Make, typename Between>
void
expectMatchesHandStepped(Make make, double watts_scale,
                         Between between)
{
    auto pool = make();
    auto twin = make();
    HandStepped hand(*twin);
    EXPECT_EQ(runScript(*pool, 200, watts_scale),
              runScript(hand, 200, watts_scale));
    between(*pool, *twin, hand);
    EXPECT_EQ(runScript(*pool, 200, watts_scale),
              runScript(hand, 200, watts_scale));
    EXPECT_EQ(memberFingerprint(*pool), memberFingerprint(*twin));
    EXPECT_EQ(poolAggregates(*pool), handAggregates(*twin));
}

void
noop(EsdPool &, EsdPool &, HandStepped &)
{
}

TEST(EsdPool, AggregatesCapacity)
{
    auto pool = twoBatteryPool();
    Battery single(BatteryParams::prototypeLeadAcid());
    EXPECT_NEAR(pool->capacityWh(), 2.0 * single.capacityWh(), 1e-9);
    EXPECT_NEAR(pool->usableEnergyWh(), 2.0 * single.usableEnergyWh(),
                1e-9);
}

TEST(EsdPool, AggregatesMaxPower)
{
    auto pool = twoBatteryPool();
    Battery single(BatteryParams::prototypeLeadAcid());
    EXPECT_NEAR(pool->maxDischargePowerW(1.0),
                2.0 * single.maxDischargePowerW(1.0), 1e-6);
}

TEST(EsdPool, SplitsLoadAcrossMembers)
{
    auto pool = twoBatteryPool();
    double got = pool->discharge(60.0, 60.0);
    EXPECT_NEAR(got, 60.0, 1e-6);
    // Both members carried roughly half.
    EXPECT_NEAR(pool->device(0).counters().dischargeEnergyWh,
                pool->device(1).counters().dischargeEnergyWh, 1e-6);
}

TEST(EsdPool, HealthDerateFansOutToMembers)
{
    auto pool = twoBatteryPool();
    double usable0 = pool->usableEnergyWh();
    pool->applyHealthDerate(0.7, 1.6);
    for (std::size_t i = 0; i < pool->deviceCount(); ++i) {
        auto &b = dynamic_cast<Battery &>(pool->device(i));
        EXPECT_NEAR(b.healthCapacityFactor(), 0.7, 1e-12);
        EXPECT_NEAR(b.healthResistanceFactor(), 1.6, 1e-12);
    }
    EXPECT_LT(pool->usableEnergyWh(), usable0);
}

TEST(EsdPool, UnequalMembersShareByCapability)
{
    auto pool = std::make_unique<EsdPool>("mixed");
    pool->add(std::make_unique<Battery>(BatteryParams::leadAcid24V(2.0)));
    pool->add(std::make_unique<Battery>(BatteryParams::leadAcid24V(6.0)));
    pool->discharge(60.0, 60.0);
    // The larger battery must have delivered more.
    EXPECT_GT(pool->device(1).counters().dischargeEnergyWh,
              pool->device(0).counters().dischargeEnergyWh);
}

TEST(EsdPool, ChargeSplit)
{
    auto pool = twoBatteryPool();
    pool->setSoc(0.5);
    double absorbed = pool->charge(40.0, 60.0);
    EXPECT_GT(absorbed, 0.0);
    EXPECT_GT(pool->device(0).counters().chargeEnergyWh, 0.0);
    EXPECT_GT(pool->device(1).counters().chargeEnergyWh, 0.0);
}

TEST(EsdPool, SocIsCapacityWeighted)
{
    auto pool = std::make_unique<EsdPool>("mixed");
    pool->add(std::make_unique<Battery>(BatteryParams::leadAcid24V(2.0)));
    pool->add(std::make_unique<Battery>(BatteryParams::leadAcid24V(6.0)));
    pool->device(0).setSoc(0.0);
    pool->device(1).setSoc(1.0);
    EXPECT_NEAR(pool->soc(), 0.75, 1e-9);
}

TEST(EsdPool, DepletedOnlyWhenAllMembersAre)
{
    auto pool = twoBatteryPool();
    pool->device(0).setSoc(0.2); // at the DoD floor
    EXPECT_FALSE(pool->depleted(1.0));
    pool->device(1).setSoc(0.2);
    EXPECT_TRUE(pool->depleted(1.0));
}

TEST(EsdPool, CountersSumMembers)
{
    auto pool = twoBatteryPool();
    pool->discharge(60.0, 120.0);
    const EsdCounters &c = pool->counters();
    double member_sum = pool->device(0).counters().dischargeEnergyWh +
                        pool->device(1).counters().dischargeEnergyWh;
    EXPECT_NEAR(c.dischargeEnergyWh, member_sum, 1e-9);
}

TEST(EsdPool, LifetimeIsWorstMember)
{
    auto pool = twoBatteryPool();
    // Stress only one member directly.
    pool->device(0).discharge(80.0, 1200.0);
    EXPECT_NEAR(pool->lifetimeFractionUsed(),
                pool->device(0).lifetimeFractionUsed(), 1e-12);
}

TEST(EsdPool, RestPropagates)
{
    auto pool = twoBatteryPool();
    pool->discharge(90.0, 600.0);
    double y1 = dynamic_cast<const Battery &>(pool->device(0))
                    .availableChargeAh();
    pool->rest(1800.0);
    double y1_rested = dynamic_cast<const Battery &>(pool->device(0))
                           .availableChargeAh();
    EXPECT_GT(y1_rested, y1);
}

TEST(EsdPool, ResetAndSetSocPropagate)
{
    auto pool = twoBatteryPool();
    pool->discharge(60.0, 600.0);
    pool->setSoc(0.3);
    EXPECT_NEAR(pool->soc(), 0.3, 1e-9);
    pool->reset();
    EXPECT_NEAR(pool->soc(), 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(pool->counters().dischargeEnergyWh, 0.0);
}

TEST(EsdPool, MixedChemistryPool)
{
    auto pool = std::make_unique<EsdPool>("hybrid");
    pool->add(std::make_unique<Supercapacitor>(
        ScParams::maxwellSeriesBank()));
    pool->add(std::make_unique<Battery>(
        BatteryParams::prototypeLeadAcid()));
    double got = pool->discharge(150.0, 10.0);
    EXPECT_GT(got, 100.0);
    // The SC (much higher max power) carries most of it.
    EXPECT_GT(pool->device(0).counters().dischargeEnergyWh,
              pool->device(1).counters().dischargeEnergyWh);
}

TEST(EsdPool, EmptyPoolIsInert)
{
    EsdPool pool("empty");
    EXPECT_DOUBLE_EQ(pool.discharge(100.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(pool.charge(100.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(pool.capacityWh(), 0.0);
    EXPECT_TRUE(pool.depleted(1.0));
}

TEST(EsdPool, BatteryPoolMatchesHandStepped)
{
    expectMatchesHandStepped([] { return batteryPool(); }, 90.0, noop);
}

TEST(EsdPool, AgingBatteryPoolMatchesHandStepped)
{
    expectMatchesHandStepped([] { return batteryPool(true); }, 120.0,
                             noop);
}

TEST(EsdPool, ScPoolMatchesHandStepped)
{
    expectMatchesHandStepped(scPool, 220.0, noop);
}

TEST(EsdPool, MixedMembersMatchHandStepped)
{
    expectMatchesHandStepped(mixedPool, 60.0, noop);
}

/** A derate of one member through device() mid-run. */
TEST(EsdPool, MidRunMemberDerateMatchesHandStepped)
{
    expectMatchesHandStepped(
        [] { return batteryPool(); }, 90.0,
        [](EsdPool &pool, EsdPool &twin, HandStepped &) {
            pool.device(2).applyHealthDerate(0.92, 1.07);
            twin.device(2).applyHealthDerate(0.92, 1.07);
        });
}

TEST(EsdPool, PoolWideDerateMatchesHandStepped)
{
    expectMatchesHandStepped(
        [] { return batteryPool(); }, 90.0,
        [](EsdPool &pool, EsdPool &twin, HandStepped &) {
            pool.applyHealthDerate(0.9, 1.1);
            for (std::size_t i = 0; i < twin.deviceCount(); ++i)
                twin.device(i).applyHealthDerate(0.9, 1.1);
        });
}

TEST(EsdPool, ResetMatchesHandStepped)
{
    expectMatchesHandStepped(
        [] { return batteryPool(); }, 90.0,
        [](EsdPool &pool, EsdPool &twin, HandStepped &) {
            pool.reset();
            for (std::size_t i = 0; i < twin.deviceCount(); ++i)
                twin.device(i).reset();
        });
}

/**
 * The pool advances member by member; the twin rests all members
 * tick by tick. Members are independent, so the two orders agree.
 */
TEST(EsdPool, AdvanceQuiescentMatchesHandStepped)
{
    auto idle = [](EsdPool &pool, EsdPool &, HandStepped &hand) {
        pool.advanceQuiescent(5000, 1.0);
        for (int t = 0; t < 5000; ++t)
            hand.rest(1.0);
    };
    expectMatchesHandStepped([] { return batteryPool(); }, 90.0, idle);
    expectMatchesHandStepped(scPool, 220.0, idle);
}

/** Interleaved reads of the aggregate always see the member sums. */
TEST(EsdPool, CountersStayFreshAcrossInterleavedReads)
{
    auto pool = batteryPool();
    auto twin = batteryPool();
    HandStepped hand(*twin);
    auto member_sum = [&] {
        double sum = 0.0;
        for (std::size_t i = 0; i < twin->deviceCount(); ++i)
            sum += twin->device(i).counters().dischargeEnergyWh;
        return sum;
    };
    double before = pool->counters().dischargeEnergyWh;
    pool->discharge(80.0, 60.0);
    hand.discharge(80.0, 60.0);
    double mid = pool->counters().dischargeEnergyWh;
    EXPECT_GT(mid, before);
    EXPECT_EQ(mid, member_sum());
    // Read again with no mutation in between: same value.
    EXPECT_EQ(pool->counters().dischargeEnergyWh, mid);
    pool->discharge(80.0, 60.0);
    hand.discharge(80.0, 60.0);
    EXPECT_GT(pool->counters().dischargeEnergyWh, mid);
    EXPECT_EQ(pool->counters().dischargeEnergyWh, member_sum());
}

TEST(EsdPoolDeath, NullDeviceRejected)
{
    EsdPool pool("p");
    EXPECT_EXIT(pool.add(nullptr), testing::ExitedWithCode(1), "null");
}

TEST(EsdPoolDeath, IndexOutOfRange)
{
    EsdPool pool("p");
    EXPECT_DEATH((void)pool.device(0), "out of range");
}

} // namespace
} // namespace heb
