/**
 * @file
 * Minimal gem5-flavoured status/error reporting.
 *
 * fatal() is for user errors (bad configuration); panic() is for
 * internal invariant violations. Both terminate. warn()/inform() are
 * advisory and never stop the run.
 *
 * Lines are written to stderr as one serialized write (safe for the
 * multi-threaded experiment sweeps) prefixed with an ISO-8601 UTC
 * timestamp. The initial threshold honours the HEB_LOG_LEVEL
 * environment variable (panic/fatal/warn/info/debug); it defaults to
 * Inform. Message arguments are only stringified when the level
 * would actually print, so a debugLog() below threshold costs one
 * branch.
 */

#pragma once

#include <sstream>
#include <string>

namespace heb {

/** Log verbosity levels, most severe first. */
enum class LogLevel { Panic, Fatal, Warn, Inform, Debug };

/**
 * Process-wide minimum level that is actually printed. Messages less
 * severe than this are dropped (fatal/panic still terminate).
 */
LogLevel logThreshold();

/** Set the process-wide log threshold. */
void setLogThreshold(LogLevel level);

/** Stable lowercase tag of a level ("warn", "info", ...). */
const char *logLevelName(LogLevel level);

/**
 * Parse a level name as accepted by HEB_LOG_LEVEL / --log-level
 * (panic, fatal, warn, info/inform, debug); fatal() on anything
 * else.
 */
LogLevel parseLogLevel(const std::string &name);

/** True when a message at @p level would currently be emitted. */
inline bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) <=
           static_cast<int>(logThreshold());
}

/** Current UTC time as ISO-8601 ("2015-06-13T08:30:00Z"). */
std::string isoTimestampUtc();

namespace detail {

/** Emit one formatted log line to stderr honouring the threshold. */
void emitLog(LogLevel level, const std::string &message);

/**
 * Emit and terminate with status 1: user-caused error. The first
 * call, on any thread, runs exit(); a concurrent second call flushes
 * stdio and calls _Exit(1).
 */
[[noreturn]] void emitFatal(const std::string &message);

/** Emit and abort(): internal bug. */
[[noreturn]] void emitPanic(const std::string &message);

/** Fold a pack of streamable values into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/** Report an unrecoverable user/configuration error and exit(1). */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::emitFatal(detail::concat(std::forward<Args>(args)...));
}

/** Report an internal invariant violation and abort(). */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::emitPanic(detail::concat(std::forward<Args>(args)...));
}

/** Report a suspicious-but-survivable condition. */
template <typename... Args>
void
warn(Args &&...args)
{
    if (!logEnabled(LogLevel::Warn))
        return;
    detail::emitLog(LogLevel::Warn,
                    detail::concat(std::forward<Args>(args)...));
}

/** Report normal operating status. */
template <typename... Args>
void
inform(Args &&...args)
{
    if (!logEnabled(LogLevel::Inform))
        return;
    detail::emitLog(LogLevel::Inform,
                    detail::concat(std::forward<Args>(args)...));
}

/** Report developer-facing detail. */
template <typename... Args>
void
debugLog(Args &&...args)
{
    if (!logEnabled(LogLevel::Debug))
        return;
    detail::emitLog(LogLevel::Debug,
                    detail::concat(std::forward<Args>(args)...));
}

} // namespace heb
