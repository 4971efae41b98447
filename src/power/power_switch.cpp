#include "power/power_switch.h"

namespace heb {

void
PowerSwitch::command(SwitchFeed feed)
{
    if (feed == target_)
        return;
    target_ = feed;
    ++actuations_;
}

double
PowerSwitch::wearFraction() const
{
    return static_cast<double>(actuations_) /
           static_cast<double>(kRatedActuations);
}

} // namespace heb
