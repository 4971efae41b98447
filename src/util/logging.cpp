#include "util/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>

#include <pthread.h>

namespace heb {

namespace {

LogLevel
thresholdFromEnvironment()
{
    const char *env = std::getenv("HEB_LOG_LEVEL");
    if (!env || !*env)
        return LogLevel::Inform;
    std::string name(env);
    if (name == "panic")
        return LogLevel::Panic;
    if (name == "fatal")
        return LogLevel::Fatal;
    if (name == "warn")
        return LogLevel::Warn;
    if (name == "info" || name == "inform")
        return LogLevel::Inform;
    if (name == "debug")
        return LogLevel::Debug;
    // Cannot fatal() while initializing logging; be permissive.
    std::fprintf(stderr,
                 "[warn] ignoring unknown HEB_LOG_LEVEL '%s'\n", env);
    return LogLevel::Inform;
}

std::atomic<int> &
thresholdStorage()
{
    static std::atomic<int> threshold{
        static_cast<int>(thresholdFromEnvironment())};
    return threshold;
}

/**
 * The sink lock. It is held across fork(), so a forked child (a death
 * test) never inherits it locked by a thread that does not exist
 * there. The logger cannot report its own failure through fatal().
 */
std::mutex &
sinkMutex()
{
    static std::mutex mu;
    static const int rc = ::pthread_atfork(
        [] { mu.lock(); }, [] { mu.unlock(); }, [] { mu.unlock(); });
    if (rc != 0) {
        std::fprintf(stderr, "[panic] pthread_atfork failed: error %d\n",
                     rc);
        std::abort();
    }
    return mu;
}

// Registered at load time, before ThreadPool::global() registers the
// pool's handler. fork() runs prepare handlers in reverse order, so
// it takes the pool mutex first and then the sink's: the order in
// which global() takes them when a new pool warns about HEB_JOBS.
[[maybe_unused]] const std::mutex &sinkAtLoad = sinkMutex();

/**
 * Compose and emit one line as a single serialized write. The
 * timestamp is taken under the sink lock too: gmtime_r takes glibc's
 * timezone lock, which fork() would otherwise copy held.
 */
void
writeLine(const char *tag, const std::string &message)
{
    std::lock_guard<std::mutex> lock(sinkMutex());
    std::string line = isoTimestampUtc();
    line += " [";
    line += tag;
    line += "] ";
    line += message;
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
}

} // namespace

LogLevel
logThreshold()
{
    return static_cast<LogLevel>(
        thresholdStorage().load(std::memory_order_relaxed));
}

void
setLogThreshold(LogLevel level)
{
    thresholdStorage().store(static_cast<int>(level),
                             std::memory_order_relaxed);
}

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Panic: return "panic";
      case LogLevel::Fatal: return "fatal";
      case LogLevel::Warn: return "warn";
      case LogLevel::Inform: return "info";
      case LogLevel::Debug: return "debug";
    }
    return "?";
}

LogLevel
parseLogLevel(const std::string &name)
{
    if (name == "panic")
        return LogLevel::Panic;
    if (name == "fatal")
        return LogLevel::Fatal;
    if (name == "warn")
        return LogLevel::Warn;
    if (name == "info" || name == "inform")
        return LogLevel::Inform;
    if (name == "debug")
        return LogLevel::Debug;
    fatal("unknown log level '", name,
          "' (expected panic/fatal/warn/info/debug)");
}

std::string
isoTimestampUtc()
{
    using namespace std::chrono;
    auto now = system_clock::now();
    std::time_t secs = system_clock::to_time_t(now);
    std::tm tm_utc{};
    gmtime_r(&secs, &tm_utc);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    return buf;
}

namespace detail {

void
emitLog(LogLevel level, const std::string &message)
{
    if (!logEnabled(level))
        return;
    writeLine(logLevelName(level), message);
}

void
emitFatal(const std::string &message)
{
    writeLine("fatal", message);
    // The first fatal(), on whichever thread, runs exit() and so the
    // atexit hooks (trace salvage, emergency checkpoint). A second
    // exit() racing the first is undefined, so a concurrent fatal()
    // flushes stdio and leaves at once with the same status.
    static std::atomic<bool> exiting{false};
    if (!exiting.exchange(true))
        std::exit(1);
    std::fflush(nullptr);
    std::_Exit(1);
}

void
emitPanic(const std::string &message)
{
    writeLine("panic", message);
    std::abort();
}

} // namespace detail

} // namespace heb
