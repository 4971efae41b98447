#include "util/rng.h"

#include <cmath>

#include "util/logging.h"

namespace heb {

double
SplitMix64::exponential(double rate)
{
    if (rate <= 0.0)
        fatal("SplitMix64::exponential rate must be positive");
    // Inverse CDF; 1 - u in (0, 1] so the log argument never hits 0.
    return -std::log(1.0 - nextDouble()) / rate;
}

double
Rng::uniform(double lo, double hi)
{
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
}

int
Rng::uniformInt(int lo, int hi)
{
    std::uniform_int_distribution<int> dist(lo, hi);
    return dist(engine_);
}

double
Rng::normal(double mean, double stddev)
{
    if (stddev < 0.0)
        fatal("Rng::normal stddev must be non-negative, got ", stddev);
    // std::normal_distribution requires stddev > 0, so draw a
    // standard normal and scale it with libstdc++'s own expression:
    // the same engine consumption and bits for any stddev > 0, and
    // exactly the mean for stddev 0.
    std::normal_distribution<double> standard;
    return standard(engine_) * stddev + mean;
}

double
Rng::exponential(double rate)
{
    if (rate <= 0.0)
        fatal("Rng::exponential rate must be positive");
    std::exponential_distribution<double> dist(rate);
    return dist(engine_);
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    std::bernoulli_distribution dist(p);
    return dist(engine_);
}

double
Rng::logNormalWithMean(double mean, double sigma)
{
    if (mean <= 0.0)
        fatal("Rng::logNormalWithMean requires positive mean");
    if (sigma < 0.0)
        fatal("Rng::logNormalWithMean sigma must be non-negative, got ",
              sigma);
    // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2); solve for mu.
    double mu = std::log(mean) - 0.5 * sigma * sigma;
    // libstdc++'s lognormal expression over a standard normal, which
    // (unlike std::lognormal_distribution) also admits sigma 0.
    std::normal_distribution<double> standard;
    return std::exp(sigma * standard(engine_) + mu);
}

} // namespace heb
