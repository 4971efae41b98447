#include "power/utility_grid.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace heb {

UtilityGrid::UtilityGrid(double budget_w) : budget_(budget_w)
{
    if (budget_w < 0.0)
        fatal("UtilityGrid budget must be non-negative");
}

double
UtilityGrid::availablePowerW(double time_seconds) const
{
    if (inOutage(time_seconds))
        return 0.0;
    return budget_;
}

void
UtilityGrid::addOutage(double start_seconds, double duration_seconds)
{
    if (duration_seconds <= 0.0)
        fatal("UtilityGrid::addOutage duration must be positive");
    outages_.push_back(
        Outage{start_seconds, start_seconds + duration_seconds});
}

double
UtilityGrid::nextChangeTime(double time_seconds) const
{
    // The budget is constant between outage edges; the next edge is
    // the nearest future outage start or end.
    double next = std::numeric_limits<double>::infinity();
    for (const Outage &o : outages_) {
        if (o.start > time_seconds)
            next = std::min(next, o.start);
        if (o.end > time_seconds)
            next = std::min(next, o.end);
    }
    return next;
}

bool
UtilityGrid::inOutage(double time_seconds) const
{
    for (const Outage &o : outages_) {
        if (time_seconds >= o.start && time_seconds < o.end)
            return true;
    }
    return false;
}

} // namespace heb
