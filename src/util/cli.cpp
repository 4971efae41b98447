#include "util/cli.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "util/config.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace heb {

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        if (comma > pos)
            out.push_back(list.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

CliArgs::CliArgs(int argc, char **argv, std::string usage)
    : argc_(argc), argv_(argv), usage_(std::move(usage))
{
}

bool
CliArgs::next()
{
    while (++index_ < argc_) {
        if (!usage_.empty() && (is("--help") || is("-h"))) {
            std::fputs(usage_.c_str(), stdout);
            std::exit(0);
        } else if (is("--jobs")) {
            ThreadPool::configureGlobal(
                ThreadPool::parseJobs(value(), "--jobs"));
        } else if (!usage_.empty() && is("--log-level")) {
            setLogThreshold(parseLogLevel(value()));
        } else {
            return true;
        }
    }
    return false;
}

bool
CliArgs::is(const char *flag) const
{
    return !std::strcmp(arg(), flag);
}

std::string
CliArgs::value()
{
    const char *flag = arg();
    if (index_ + 1 >= argc_)
        fatal(flag, " requires a value");
    return argv_[++index_];
}

template <typename T>
T
CliArgs::number()
{
    std::string flag = arg();
    return parseNumber<T>(value(), flag);
}

template double CliArgs::number<double>();
template long CliArgs::number<long>();
template long long CliArgs::number<long long>();

std::size_t
CliArgs::count()
{
    std::string flag = arg();
    long n = number<long>();
    if (n < 1)
        fatal(flag, " must be >= 1");
    return static_cast<std::size_t>(n);
}

double
CliArgs::positive()
{
    std::string flag = arg();
    double v = number<double>();
    if (!std::isfinite(v) || v <= 0.0)
        fatal(flag, " must be finite and positive (got ", v, ")");
    return v;
}

const char *
CliArgs::arg() const
{
    return argv_[index_];
}

void
CliArgs::unknown() const
{
    std::fputs(usage_.c_str(), stdout);
    fatal("unknown argument '", arg(), "'");
}

void
parseJobsOnly(int argc, char **argv)
{
    CliArgs cli(argc, argv, "");
    while (cli.next())
        fatal("unknown argument '", cli.arg(), "' (supported: --jobs N)");
}

} // namespace heb
