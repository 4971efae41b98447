#include "util/state_cursor.h"

#include <cmath>

#include "util/logging.h"

namespace heb {

void
StateCursor::value(double &v, const char *what)
{
    if (!loading()) {
        out_->push_back(v);
        return;
    }
    if (pos_ >= in_->size())
        fatal(owner_, ": truncated state while reading ", what);
    v = (*in_)[pos_++];
}

void
StateCursor::flag(bool &v, const char *what)
{
    double d = v ? 1.0 : 0.0;
    value(d, what);
    v = d != 0.0;
}

void
StateCursor::values(std::vector<double> &v, const char *what)
{
    list(v, what, [&](double &x) { value(x, what); });
}

void
StateCursor::finish() const
{
    if (loading() && pos_ != in_->size())
        fatal(owner_, ": ", in_->size() - pos_, " trailing values");
}

std::size_t
StateCursor::checkedCount(double v, const char *what) const
{
    if (!(v >= 0.0 && v < 0x1p64) || v != std::floor(v))
        fatal(owner_, ": bad count for ", what, ": ", v);
    return static_cast<std::size_t>(v);
}

} // namespace heb
