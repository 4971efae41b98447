/**
 * @file
 * Shared argv handling for the sweep benches: every figure bench
 * accepts `--jobs N` to size the shared thread pool (HEB_JOBS is
 * honoured when the flag is absent), so CI and developers can pin
 * sweep parallelism per invocation.
 */

#pragma once

#include <cstring>
#include <string>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace heb {

/**
 * Apply the common sweep flags (`--jobs N`). fatal()s on anything
 * unrecognized so a typo never silently runs a multi-minute sweep
 * with default settings.
 */
inline void
applySweepCliArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            ThreadPool::configureGlobal(
                ThreadPool::parseJobs(argv[++i], "--jobs"));
        } else {
            fatal("unknown argument '", argv[i],
                  "' (supported: --jobs N)");
        }
    }
}

} // namespace heb
