/**
 * @file
 * Bit-for-bit trajectory pins for the scalar device models.
 *
 * A seeded op sequence drives Battery and Supercapacitor through
 * discharge and charge at 0 W, below the meaningful-power threshold,
 * mid-range and far above capability, plus rest, advanceQuiescent,
 * health derates, setSoc and reset, at tick lengths of 1, 0.5, 2.5
 * and 600 s (so the supercapacitor's partial sub-step runs). Every
 * return value, every query and every state() field is rendered with
 * %.17g and folded into an FNV-1a digest. The digests are fixed: any
 * change to a floating-point expression or its evaluation order in
 * the device models moves them. They were recorded on x86-64 Linux
 * with glibc's libm.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "esd/battery.h"
#include "esd/supercapacitor.h"

namespace heb {
namespace {

/** FNV-1a (64-bit) over the %.17g rendering of each value. */
class Digest
{
  public:
    void
    add(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g;", v);
        addText(buf);
    }

    void
    add(unsigned long v)
    {
        char buf[24];
        std::snprintf(buf, sizeof buf, "%lu;", v);
        addText(buf);
    }

    void add(int v) { add(static_cast<double>(v)); }
    void add(bool v) { addText(v ? "T;" : "F;"); }

    void
    add(const EsdCounters &c)
    {
        add(c.chargeEnergyWh);
        add(c.dischargeEnergyWh);
        add(c.lossEnergyWh);
        add(c.dischargeAh);
        add(c.chargeAh);
        add(c.directionChanges);
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    addText(const char *s)
    {
        for (; *s; ++s) {
            h_ ^= static_cast<unsigned char>(*s);
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** splitmix64: a portable, seeded op-sequence source. */
class OpRng
{
  public:
    explicit OpRng(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t s_;
};

void
hashState(Digest &d, const Battery &b)
{
    BatteryState s = b.state();
    d.add(s.y1);
    d.add(s.y2);
    d.add(s.healthCap);
    d.add(s.healthRes);
    d.add(s.weightedAh);
    d.add(s.tempC);
    d.add(s.lastDirection);
    d.add(s.counters);
}

void
hashState(Digest &d, const Supercapacitor &sc)
{
    ScState s = sc.state();
    d.add(s.voltage);
    d.add(s.healthCap);
    d.add(s.healthRes);
    d.add(s.lastDirection);
    d.add(s.counters);
}

void
hashModelQueries(Digest &d, const Battery &b, double dt)
{
    d.add(b.openCircuitVoltage());
    d.add(b.effectiveResistance());
    d.add(b.effectiveCapacityAh());
    d.add(b.thermalChargeDerate());
    d.add(b.kibamMaxDischargeCurrent(dt));
    d.add(b.kibamMaxChargeCurrent(dt));
    d.add(b.kibamMaxDischargeCurrent(0.0));
    d.add(b.kibamMaxChargeCurrent(0.0));
}

void
hashModelQueries(Digest &d, const Supercapacitor &sc, double)
{
    d.add(sc.effectiveEsrOhm());
    d.add(sc.effectiveCapacitanceF());
}

/** Power request of one op: 0 W, sub-threshold, mid or overload. */
double
requestW(OpRng &rng, double capability_w)
{
    switch (rng.below(4)) {
    case 0:
        return 0.0;
    case 1:
        return 1e-10;
    case 2:
        return (0.05 + 0.9 * rng.unit()) * capability_w;
    default:
        return 1e7;
    }
}

/**
 * Run @p ops seeded ops on @p dev and return the digest of every
 * result, query and state along the way.
 */
template <class Device>
std::uint64_t
trajectoryDigest(Device &dev, std::uint64_t seed, int ops)
{
    static constexpr double kDts[] = {1.0, 0.5, 2.5, 600.0};
    OpRng rng(seed);
    Digest d;
    for (int n = 0; n < ops; ++n) {
        double dt = kDts[rng.below(4)];
        // Alternate discharge-heavy and charge-heavy phases so the
        // devices reach both the floor and the ceiling.
        bool drain_phase = (n / 150) % 2 == 0;
        std::uint64_t op = rng.below(100);
        if (op < 70) {
            bool discharge = drain_phase ? op < 55 : op < 15;
            if (discharge)
                d.add(dev.discharge(
                    requestW(rng, dev.maxDischargePowerW(dt)), dt));
            else
                d.add(dev.charge(
                    requestW(rng, dev.maxChargePowerW(dt)), dt));
        } else if (op < 82) {
            dev.rest(dt);
        } else if (op < 94) {
            dev.advanceQuiescent(rng.below(50), dt);
        } else if (op < 96) {
            static constexpr double kCap[] = {1.0, 0.97, 0.9};
            static constexpr double kRes[] = {1.0, 1.05, 1.3};
            dev.applyHealthDerate(kCap[rng.below(3)],
                                  kRes[rng.below(3)]);
        } else if (op < 99) {
            std::uint64_t pick = rng.below(8);
            dev.setSoc(pick == 0 ? 0.0
                                 : (pick == 1 ? 1.0 : rng.unit()));
        } else {
            dev.reset();
        }

        d.add(dev.soc());
        d.add(dev.usableEnergyWh());
        d.add(dev.terminalVoltage(0.0));
        d.add(dev.terminalVoltage(50.0));
        d.add(dev.terminalVoltage(1e7));
        d.add(dev.maxDischargePowerW(dt));
        d.add(dev.maxChargePowerW(dt));
        d.add(dev.maxDischargePowerW(0.0));
        d.add(dev.maxChargePowerW(0.0));
        d.add(dev.depleted(dt));
        d.add(dev.lifetimeFractionUsed());
        hashModelQueries(d, dev, dt);
        hashState(d, dev);
    }
    return d.value();
}

constexpr int kOps = 6000;

void
expectDigest(std::uint64_t got, std::uint64_t want)
{
    EXPECT_EQ(got, want) << "digest 0x" << std::hex << got;
}

TEST(TrajectoryDigest, LeadAcid)
{
    Battery b(BatteryParams::prototypeLeadAcid());
    expectDigest(trajectoryDigest(b, 11, kOps), 0x0b86bb7e0d4777afull);
}

TEST(TrajectoryDigest, LeadAcidAgingThermal)
{
    BatteryParams p = BatteryParams::prototypeLeadAcid();
    p.agingEnabled = true;
    p.thermalEnabled = true;
    // A faster, hotter thermal path so charging also meets the
    // cutoff, not only the derate span.
    p.thermalResistanceCPerW = 10.0;
    p.thermalTimeConstantS = 300.0;
    Battery b(p);
    expectDigest(trajectoryDigest(b, 12, kOps), 0xb041c2f56f1a53f3ull);
}

TEST(TrajectoryDigest, LeadAcidPeakPowerLimited)
{
    // A low cutoff and a high C-rate leave the ocv/(2r) peak-power
    // bound as the binding limit, so overload requests land on the
    // quadratic's edge where rounding can make the discriminant
    // negative.
    BatteryParams p = BatteryParams::leadAcid24V(8.0);
    p.vCutoff = 2.0;
    p.maxDischargeCRate = 40.0;
    p.agingEnabled = true;
    Battery b(p);
    expectDigest(trajectoryDigest(b, 13, kOps), 0xd53419bcc6fd8661ull);
}

TEST(TrajectoryDigest, LiIon)
{
    Battery b(BatteryParams::liIon24V(4.0));
    expectDigest(trajectoryDigest(b, 14, kOps), 0x893631e0c6ac2610ull);
}

TEST(TrajectoryDigest, SupercapacitorSeriesBank)
{
    Supercapacitor sc(ScParams::maxwellSeriesBank());
    expectDigest(trajectoryDigest(sc, 21, kOps), 0x709a6881e28b2a84ull);
}

TEST(TrajectoryDigest, SupercapacitorModule)
{
    Supercapacitor sc(ScParams::maxwell16V600F());
    expectDigest(trajectoryDigest(sc, 22, kOps), 0x70a35af89e5f982cull);
}

} // namespace
} // namespace heb
