/** @file KiBaM battery physics: the phenomena the paper leans on. */

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "esd/battery.h"
#include "util/units.h"

namespace heb {
namespace {

Battery
freshBattery()
{
    return Battery(BatteryParams::prototypeLeadAcid());
}

TEST(Battery, StartsFull)
{
    Battery b = freshBattery();
    EXPECT_NEAR(b.soc(), 1.0, 1e-12);
    EXPECT_GT(b.usableEnergyWh(), 0.0);
    EXPECT_FALSE(b.depleted(1.0));
}

TEST(Battery, DischargeDrainsSoc)
{
    Battery b = freshBattery();
    double got = b.discharge(30.0, 600.0);
    EXPECT_NEAR(got, 30.0, 1e-6);
    EXPECT_LT(b.soc(), 1.0);
    EXPECT_GT(b.soc(), 0.8);
}

TEST(Battery, DischargeRespectsRequest)
{
    Battery b = freshBattery();
    double got = b.discharge(5.0, 60.0);
    EXPECT_LE(got, 5.0 + 1e-9);
}

TEST(Battery, CannotExceedRateLimit)
{
    Battery b = freshBattery();
    // 1 C on 4 Ah at ~25 V is roughly 100 W; ask for far more.
    double got = b.discharge(5000.0, 1.0);
    double i_max = b.params().maxDischargeCRate * b.params().capacityAh;
    double upper = b.params().vFull * i_max;
    EXPECT_LE(got, upper);
    EXPECT_GT(got, 0.0);
}

TEST(Battery, HealthDerateShrinksCapacityPreservingSoc)
{
    Battery b = freshBattery();
    double soc_before = b.soc();
    double cap_before = b.effectiveCapacityAh();
    b.applyHealthDerate(0.7, 1.6);
    EXPECT_NEAR(b.soc(), soc_before, 1e-9);
    EXPECT_NEAR(b.effectiveCapacityAh(), cap_before * 0.7, 1e-9);
    EXPECT_LT(b.usableEnergyWh(),
              freshBattery().usableEnergyWh());
}

TEST(Battery, HealthDerateGrowsResistance)
{
    Battery healthy = freshBattery();
    Battery weak = freshBattery();
    weak.applyHealthDerate(1.0, 2.0);
    EXPECT_NEAR(weak.effectiveResistance(),
                2.0 * healthy.effectiveResistance(), 1e-12);
    // More sag under the same load.
    EXPECT_LT(weak.terminalVoltage(80.0),
              healthy.terminalVoltage(80.0));
}

TEST(Battery, HealthDeratesCompoundAndResetRestores)
{
    Battery b = freshBattery();
    b.applyHealthDerate(0.8, 1.5);
    b.applyHealthDerate(0.5, 2.0);
    EXPECT_NEAR(b.healthCapacityFactor(), 0.4, 1e-12);
    EXPECT_NEAR(b.healthResistanceFactor(), 3.0, 1e-12);
    b.reset();
    EXPECT_DOUBLE_EQ(b.healthCapacityFactor(), 1.0);
    EXPECT_DOUBLE_EQ(b.healthResistanceFactor(), 1.0);
    EXPECT_NEAR(b.effectiveCapacityAh(),
                freshBattery().effectiveCapacityAh(), 1e-12);
}

TEST(Battery, HealthDerateValidatesFactors)
{
    Battery b = freshBattery();
    EXPECT_EXIT(b.applyHealthDerate(0.0, 1.0),
                testing::ExitedWithCode(1), "capacity");
    EXPECT_EXIT(b.applyHealthDerate(1.5, 1.0),
                testing::ExitedWithCode(1), "capacity");
    EXPECT_EXIT(b.applyHealthDerate(0.5, 0.9),
                testing::ExitedWithCode(1), "resistance");
}

TEST(Battery, VoltageSagsUnderLoad)
{
    Battery b = freshBattery();
    double v_idle = b.terminalVoltage(0.0);
    double v_loaded = b.terminalVoltage(80.0);
    EXPECT_GT(v_idle, v_loaded);
    EXPECT_GT(v_loaded, 0.0);
}

TEST(Battery, VoltageSagWorsensAtLowSoc)
{
    Battery b = freshBattery();
    double sag_full =
        b.terminalVoltage(0.0) - b.terminalVoltage(60.0);
    b.setSoc(0.3);
    double sag_low = b.terminalVoltage(0.0) - b.terminalVoltage(60.0);
    EXPECT_GT(sag_low, sag_full);
}

TEST(Battery, OcvTracksSoc)
{
    Battery b = freshBattery();
    double v_full = b.openCircuitVoltage();
    b.setSoc(0.5);
    double v_half = b.openCircuitVoltage();
    b.setSoc(0.1);
    double v_low = b.openCircuitVoltage();
    EXPECT_GT(v_full, v_half);
    EXPECT_GT(v_half, v_low);
}

TEST(Battery, RecoveryEffect)
{
    // Drain hard, note the available well is depleted, rest, and the
    // bound well must replenish it (the paper's recovery effect).
    Battery b = freshBattery();
    for (int i = 0; i < 600; ++i)
        b.discharge(90.0, 1.0);
    double y1_after_burst = b.availableChargeAh();
    b.rest(1800.0);
    double y1_after_rest = b.availableChargeAh();
    EXPECT_GT(y1_after_rest, y1_after_burst);
}

TEST(Battery, RecoveryIncreasesDeliverablePower)
{
    Battery b = freshBattery();
    // Exhaust the available well.
    while (b.maxDischargePowerW(1.0) > 10.0)
        b.discharge(100.0, 1.0);
    double p_tired = b.maxDischargePowerW(1.0);
    b.rest(3600.0);
    double p_rested = b.maxDischargePowerW(1.0);
    EXPECT_GT(p_rested, p_tired + 1.0);
}

TEST(Battery, RateCapacityEffect)
{
    // Higher constant discharge power must deliver less total energy
    // before depletion (Peukert-like behaviour from KiBaM).
    auto total_energy = [](double watts) {
        Battery b(BatteryParams::prototypeLeadAcid());
        double wh = 0.0;
        for (int i = 0; i < 3600 * 8; ++i) {
            double got = b.discharge(watts, 1.0);
            wh += energyWh(got, 1.0);
            if (got < watts * 0.5)
                break;
        }
        return wh;
    };
    double e_slow = total_energy(20.0);
    double e_fast = total_energy(80.0);
    EXPECT_GT(e_slow, e_fast * 1.05);
}

TEST(Battery, ChargeCurrentCeiling)
{
    Battery b = freshBattery();
    b.setSoc(0.4);
    double absorbed = b.charge(1000.0, 1.0);
    double i_max = b.params().maxChargeCRate * b.params().capacityAh;
    // Terminal power at the ceiling current can't exceed
    // vChargeMax * i_max.
    EXPECT_LE(absorbed, b.params().vChargeMax * i_max + 1e-6);
    EXPECT_GT(absorbed, 0.0);
}

TEST(Battery, ChargeStopsWhenFull)
{
    Battery b = freshBattery();
    double absorbed = b.charge(50.0, 600.0);
    EXPECT_NEAR(absorbed, 0.0, 1e-6);
    // Self-discharge during the rested interval nibbles a hair off.
    EXPECT_NEAR(b.soc(), 1.0, 1e-4);
}

TEST(Battery, RoundTripEfficiencyInLeadAcidBand)
{
    Battery b = freshBattery();
    b.setSoc(0.5);
    // Charge some energy in, then pull it back out; the ratio must
    // land in the realistic lead-acid band (70-85 %).
    double in_wh = 0.0;
    for (int i = 0; i < 3600 * 4; ++i)
        in_wh += energyWh(b.charge(20.0, 1.0), 1.0);
    double out_wh = 0.0;
    while (b.soc() > 0.5 + 1e-3) {
        double got = b.discharge(20.0, 1.0);
        if (got <= 0.0)
            break;
        out_wh += energyWh(got, 1.0);
    }
    ASSERT_GT(in_wh, 0.0);
    double eff = out_wh / in_wh;
    EXPECT_GT(eff, 0.65);
    EXPECT_LT(eff, 0.88);
}

TEST(Battery, DodFloorLimitsUsableEnergy)
{
    BatteryParams p = BatteryParams::prototypeLeadAcid();
    p.dodLimit = 0.5;
    Battery b(p);
    EXPECT_NEAR(b.usableEnergyWh(),
                0.5 * p.capacityAh * p.nominalVoltage, 1e-9);
    // Discharge everything allowed; SoC must stop near 0.5.
    for (int i = 0; i < 3600 * 10 && !b.depleted(1.0); ++i)
        b.discharge(40.0, 1.0);
    EXPECT_GT(b.soc(), 0.45);
}

TEST(Battery, CountersAccumulate)
{
    Battery b = freshBattery();
    b.discharge(50.0, 60.0);
    const EsdCounters &c = b.counters();
    EXPECT_GT(c.dischargeEnergyWh, 0.0);
    EXPECT_GT(c.dischargeAh, 0.0);
    EXPECT_GT(c.lossEnergyWh, 0.0);
    EXPECT_DOUBLE_EQ(c.chargeEnergyWh, 0.0);
}

TEST(Battery, DirectionChangesCounted)
{
    Battery b = freshBattery();
    b.setSoc(0.5);
    b.discharge(20.0, 10.0);
    b.charge(20.0, 10.0);
    b.discharge(20.0, 10.0);
    EXPECT_EQ(b.counters().directionChanges, 2u);
}

TEST(Battery, WearWeightGrowsAtLowSocAndHighCurrent)
{
    Battery b = freshBattery();
    b.discharge(20.0, 60.0);
    double w_gentle = b.weightedThroughputAh() /
                      b.counters().dischargeAh;

    Battery h = freshBattery();
    h.setSoc(0.4);
    h.discharge(90.0, 60.0);
    double w_harsh =
        h.weightedThroughputAh() / h.counters().dischargeAh;
    EXPECT_GT(w_harsh, w_gentle);
}

TEST(Battery, LifetimeFractionMonotone)
{
    Battery b = freshBattery();
    EXPECT_DOUBLE_EQ(b.lifetimeFractionUsed(), 0.0);
    b.discharge(60.0, 600.0);
    double f1 = b.lifetimeFractionUsed();
    b.rest(600.0);
    b.discharge(60.0, 600.0);
    EXPECT_GT(b.lifetimeFractionUsed(), f1);
}

TEST(Battery, ResetRestoresFreshState)
{
    Battery b = freshBattery();
    b.discharge(80.0, 1200.0);
    b.reset();
    EXPECT_NEAR(b.soc(), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(b.counters().dischargeEnergyWh, 0.0);
    EXPECT_DOUBLE_EQ(b.weightedThroughputAh(), 0.0);
}

TEST(Battery, SetSocBounds)
{
    Battery b = freshBattery();
    b.setSoc(0.25);
    EXPECT_NEAR(b.soc(), 0.25, 1e-12);
    EXPECT_EXIT(b.setSoc(1.5), testing::ExitedWithCode(1),
                "out of range");
}

TEST(Battery, SelfDischargeWhileResting)
{
    Battery b = freshBattery();
    double soc0 = b.soc();
    b.rest(kSecondsPerDay * 30.0);
    EXPECT_LT(b.soc(), soc0);
    EXPECT_GT(b.soc(), 0.9); // but slow
}

TEST(Battery, InvalidParamsRejected)
{
    BatteryParams p;
    p.kibamC = 1.5;
    EXPECT_EXIT(Battery{p}, testing::ExitedWithCode(1), "KiBaM c");
    BatteryParams q;
    q.capacityAh = -1.0;
    EXPECT_EXIT(Battery{q}, testing::ExitedWithCode(1), "capacity");
}

/**
 * The ceiling queries of @p warm, whose memo holds whatever the ops so
 * far left in it, must match bit for bit those of a cold battery
 * restored to the same state.
 */
void
expectCeilingsMatchCold(const Battery &warm, double dt)
{
    Battery cold(warm.params());
    cold.restoreState(warm.state());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.maxChargePowerW(dt)),
              std::bit_cast<std::uint64_t>(cold.maxChargePowerW(dt)))
        << "dt " << dt;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.maxDischargePowerW(dt)),
              std::bit_cast<std::uint64_t>(cold.maxDischargePowerW(dt)))
        << "dt " << dt;
    EXPECT_EQ(warm.depleted(dt), cold.depleted(dt)) << "dt " << dt;
}

/** splitmix64 step: a portable seeded op source. */
std::uint64_t
splitmix(std::uint64_t &s)
{
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Drive @p params through a seeded mix of every state-changing op,
 * switching the tick length, and check the memoized ceilings against
 * a cold device after each op. Each op runs right after its tick's
 * ceilings were queried, so a write that failed to clear the memo
 * would leave it stale.
 */
void
checkCeilingMemo(const BatteryParams &params, std::uint64_t seed)
{
    static constexpr double kDts[] = {1.0, 0.5, 600.0};
    Battery b(params);
    BatteryState saved = b.state();
    for (int n = 0; n < 3000; ++n) {
        double dt = kDts[splitmix(seed) % 3];
        double frac = static_cast<double>(splitmix(seed) >> 11) * 0x1p-53;
        expectCeilingsMatchCold(b, dt);
        // Alternate drain- and charge-heavy stretches so the battery
        // meets both its floor and its ceiling.
        bool drain = (n / 200) % 2 == 0;
        switch (splitmix(seed) % 10) {
        case 0:
        case 1:
        case 2:
            if (drain)
                b.discharge(frac * 1.2 * b.maxDischargePowerW(dt), dt);
            else
                b.charge(frac * 1.2 * b.maxChargePowerW(dt), dt);
            break;
        case 3:
            if (drain)
                b.charge(frac * b.maxChargePowerW(dt), dt);
            else
                b.discharge(frac * b.maxDischargePowerW(dt), dt);
            break;
        case 4:
            b.rest(dt);
            break;
        case 5:
            b.advanceQuiescent(splitmix(seed) % 20, dt);
            break;
        case 6:
            b.setSoc(frac);
            break;
        case 7:
            b.applyHealthDerate(1.0 - 0.05 * frac, 1.0 + 0.1 * frac);
            break;
        case 8:
            if (frac < 0.5)
                saved = b.state();
            else
                b.restoreState(saved);
            break;
        default:
            if (frac < 0.1)
                b.reset();
            else
                b.rest(dt);
        }
        expectCeilingsMatchCold(b, dt);
        if (testing::Test::HasFailure())
            FAIL() << params.name << ": op " << n;
    }
}

TEST(Battery, CeilingMemoMatchesColdDevice)
{
    checkCeilingMemo(BatteryParams::prototypeLeadAcid(), 1);

    BatteryParams aged = BatteryParams::prototypeLeadAcid();
    aged.agingEnabled = true;
    aged.thermalEnabled = true;
    // Hot enough that charging meets the thermal derate.
    aged.thermalResistanceCPerW = 10.0;
    aged.thermalTimeConstantS = 300.0;
    checkCeilingMemo(aged, 2);

    checkCeilingMemo(BatteryParams::liIon24V(4.0), 3);
}

// --- Property sweep: energy conservation across discharge rates ----

class BatteryRateSweep : public testing::TestWithParam<double>
{
};

TEST_P(BatteryRateSweep, EnergyConservation)
{
    // Terminal energy + internal losses == OCV-referenced charge
    // removed, within tolerance, at every discharge rate.
    Battery b = freshBattery();
    double watts = GetParam();
    double out_wh = 0.0;
    for (int i = 0; i < 900; ++i)
        out_wh += energyWh(b.discharge(watts, 1.0), 1.0);
    const EsdCounters &c = b.counters();
    double removed_ah = c.dischargeAh;
    // Energy removed from the store lies between Ah * vEmpty and
    // Ah * vFull.
    double lo = removed_ah * b.params().vEmpty;
    double hi = removed_ah * b.params().vFull;
    EXPECT_GE(out_wh + c.lossEnergyWh, lo * 0.95);
    EXPECT_LE(out_wh + c.lossEnergyWh, hi * 1.05);
}

TEST_P(BatteryRateSweep, DeliveredNeverExceedsRequested)
{
    Battery b = freshBattery();
    double watts = GetParam();
    for (int i = 0; i < 600; ++i)
        EXPECT_LE(b.discharge(watts, 1.0), watts + 1e-9);
}

TEST_P(BatteryRateSweep, SocMonotoneNonIncreasingUnderDischarge)
{
    Battery b = freshBattery();
    double watts = GetParam();
    double prev = b.soc();
    for (int i = 0; i < 600; ++i) {
        b.discharge(watts, 1.0);
        EXPECT_LE(b.soc(), prev + 1e-12);
        prev = b.soc();
    }
}

INSTANTIATE_TEST_SUITE_P(Rates, BatteryRateSweep,
                         testing::Values(5.0, 20.0, 40.0, 60.0, 80.0,
                                         100.0));

} // namespace
} // namespace heb
