#include "power/power_switch.h"

namespace heb {

double
PowerSwitch::wearFraction() const
{
    return static_cast<double>(actuations_) /
           static_cast<double>(kRatedActuations);
}

} // namespace heb
