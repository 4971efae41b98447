/** @file Logging levels and termination semantics. */

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "util/logging.h"

namespace heb {
namespace {

TEST(Logging, FatalExitsWithOne)
{
    EXPECT_EXIT(fatal("user error ", 42), testing::ExitedWithCode(1),
                "user error 42");
}

TEST(Logging, PanicAborts)
{
    EXPECT_DEATH(panic("bug ", "here"), "bug here");
}

TEST(Logging, WarnAndInformDoNotTerminate)
{
    warn("just a warning");
    inform("status line");
    SUCCEED();
}

TEST(Logging, ThresholdSuppressionRoundTrip)
{
    LogLevel old = logThreshold();
    setLogThreshold(LogLevel::Fatal);
    EXPECT_EQ(logThreshold(), LogLevel::Fatal);
    // Suppressed but harmless.
    debugLog("invisible");
    setLogThreshold(old);
    EXPECT_EQ(logThreshold(), old);
}

TEST(LoggingDeathTest, FatalWhileAnotherThreadLogsExits)
{
    // A second thread logs without pause, so fork() often lands while
    // it holds the sink lock or is inside gmtime_r. The child must
    // still write its line and exit rather than hang on a lock whose
    // owner was not copied into it. 25 forks hung 10 runs of 10
    // without the sink's fork handler, and take about 30 s under
    // ThreadSanitizer. Between forks the helper's lines go to
    // /dev/null; during one they go to gtest's capture file, so the
    // helper writes at most kLinesPerFork lines per fork and a hung
    // child leaves about 1 MB there, not a file that grows until the
    // timeout.
    LogLevel old = logThreshold();
    setLogThreshold(LogLevel::Warn);
    int saved_stderr = ::dup(2);
    int dev_null = ::open("/dev/null", O_WRONLY);
    ASSERT_GE(saved_stderr, 0);
    ASSERT_GE(dev_null, 0);
    ::dup2(dev_null, 2);

    constexpr int kLinesPerFork = 20000;
    std::atomic<int> budget{0};
    std::atomic<bool> stop{false};
    std::thread logger([&budget, &stop] {
        while (!stop.load(std::memory_order_relaxed)) {
            if (budget.load(std::memory_order_relaxed) > 0) {
                budget.fetch_sub(1, std::memory_order_relaxed);
                warn("background line");
            } else {
                std::this_thread::sleep_for(std::chrono::microseconds(100));
            }
        }
    });
    for (int i = 0; i < 25; ++i) {
        budget.store(kLinesPerFork, std::memory_order_relaxed);
        EXPECT_EXIT(fatal("forked child ", i), testing::ExitedWithCode(1),
                    "forked child");
    }
    stop.store(true, std::memory_order_relaxed);
    logger.join();

    ::dup2(saved_stderr, 2);
    ::close(saved_stderr);
    ::close(dev_null);
    setLogThreshold(old);
}

TEST(Logging, ConcatFormatsMixedTypes)
{
    EXPECT_EQ(detail::concat("a", 1, 'b', 2.5), "a1b2.5");
}

} // namespace
} // namespace heb
