#include "power/converter.h"

#include <algorithm>

#include "util/logging.h"

namespace heb {

Converter::Converter(ConverterParams params) : params_(std::move(params))
{
    if (params_.ratedPowerW <= 0.0)
        fatal("Converter rated power must be positive");
    if (params_.fixedLossFraction < 0.0 || params_.proportionalLoss < 0.0)
        fatal("Converter loss parameters must be non-negative");
    if (params_.proportionalLoss >= 1.0)
        fatal("Converter proportional loss must be < 1");
}

double
Converter::outputFor(double input_watts) const
{
    if (input_watts <= 0.0)
        return 0.0;
    double fixed = params_.fixedLossFraction * params_.ratedPowerW;
    // input = output + fixed + alpha * output
    double out = (input_watts - fixed) / (1.0 + params_.proportionalLoss);
    return std::max(0.0, out);
}

double
Converter::inputFor(double output_watts) const
{
    if (output_watts <= 0.0)
        return 0.0;
    double fixed = params_.fixedLossFraction * params_.ratedPowerW;
    return output_watts * (1.0 + params_.proportionalLoss) + fixed;
}

double
Converter::efficiencyAt(double output_watts) const
{
    if (output_watts <= 0.0)
        return 0.0;
    return output_watts / inputFor(output_watts);
}

void
Converter::trip(double now_seconds, double restart_delay_seconds)
{
    if (restart_delay_seconds < 0.0)
        fatal("Converter::trip: negative restart delay");
    restoreTime_ =
        std::max(restoreTime_, now_seconds + restart_delay_seconds);
}

Converter
Converter::doubleConversionUps(double rated_w)
{
    ConverterParams p;
    p.name = "ups-double-conversion";
    p.ratedPowerW = rated_w;
    p.fixedLossFraction = 0.02;
    p.proportionalLoss = 0.05;
    return Converter(p);
}

Converter
Converter::rackInverter(double rated_w)
{
    ConverterParams p;
    p.name = "rack-inverter";
    p.ratedPowerW = rated_w;
    p.fixedLossFraction = 0.008;
    p.proportionalLoss = 0.035;
    return Converter(p);
}

Converter
Converter::dcDcStage(double rated_w)
{
    ConverterParams p;
    p.name = "dc-dc";
    p.ratedPowerW = rated_w;
    p.fixedLossFraction = 0.003;
    p.proportionalLoss = 0.015;
    return Converter(p);
}

} // namespace heb
