/**
 * @file
 * Power converter with a load-dependent efficiency curve.
 *
 * Models AC/DC rectifiers, DC/AC inverters and the double-converting
 * online UPS path (paper §4.1: 4-10 % loss). Efficiency rises with
 * load fraction — converters are poor at light load — using the
 * standard fixed-plus-proportional loss form:
 *
 *   loss(P) = p0 * Prated + alpha * P
 *
 * which yields eff(P) = P / (P + loss(P)).
 */

#pragma once

#include <string>

namespace heb {

/** Knobs of one conversion stage. */
struct ConverterParams
{
    /** Label for logs. */
    std::string name = "converter";

    /** Rated throughput (W). */
    double ratedPowerW = 1000.0;

    /** No-load loss as a fraction of rated power. */
    double fixedLossFraction = 0.01;

    /** Proportional loss per delivered watt. */
    double proportionalLoss = 0.03;
};

/** One conversion stage (AC/DC, DC/AC, or DC/DC). */
class Converter
{
  public:
    /** Construct from knobs. */
    explicit Converter(ConverterParams params);

    /** Label. */
    const std::string &name() const { return params_.name; }

    /** Rated throughput (W). */
    double ratedPowerW() const { return params_.ratedPowerW; }

    /**
     * Output power delivered when drawing @p input_watts at the
     * converter's input.
     */
    double outputFor(double input_watts) const;

    /**
     * Input power that must be drawn to deliver @p output_watts.
     */
    double inputFor(double output_watts) const;

    /** Efficiency when delivering @p output_watts. */
    double efficiencyAt(double output_watts) const;

    /**
     * Fault hook: trip the converter offline at @p now_seconds; it
     * restarts @p restart_delay_seconds later. Overlapping trips keep
     * the latest restart time.
     */
    void trip(double now_seconds, double restart_delay_seconds);

    /** True when the converter can carry power at @p now_seconds. */
    bool availableAt(double now_seconds) const
    {
        return now_seconds >= restoreTime_;
    }

    /**
     * When the latest trip restores (s). availableAt() flips exactly
     * here; the fast-forward engine treats it as an event horizon.
     */
    double restoreTime() const { return restoreTime_; }

    /** Restore restoreTime() from a checkpoint. */
    void setRestoreTime(double seconds) { restoreTime_ = seconds; }

    /**
     * The double-conversion (AC-DC-AC) path of a centralized online
     * UPS: two cascaded stages, 6-8 % total loss at typical load.
     */
    static Converter doubleConversionUps(double rated_w);

    /** A rack-level DC/AC inverter (the prototype's 1000 W units). */
    static Converter rackInverter(double rated_w = 1000.0);

    /** A high-efficiency DC/DC stage for rack-level DC delivery. */
    static Converter dcDcStage(double rated_w);

  private:
    ConverterParams params_;
    double restoreTime_ = 0.0;
};

} // namespace heb
