/**
 * @file
 * Process memory introspection for bench artifacts.
 */

#pragma once

#include <cstdint>

namespace heb {

/**
 * Peak resident set size of the calling process in bytes, from
 * getrusage(RUSAGE_SELF): the kernel's high-water mark since
 * process start. Returns 0 when the platform cannot say.
 */
std::uint64_t peakRssBytes();

} // namespace heb
