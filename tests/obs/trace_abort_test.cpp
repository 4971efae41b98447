/**
 * @file
 * Flush-on-abort tests: a trace ring armed with
 * installTraceFlushOnAbort survives exit()/fatal() paths and
 * uncaught exceptions as a JSONL file; a disarmed hook writes
 * nothing; tryWriteJsonl reports unwritable paths instead of dying.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "obs/trace.h"
#include "test_paths.h"

namespace heb {
namespace obs {
namespace {

std::size_t
lineCount(const std::string &path)
{
    std::ifstream in(path);
    if (!in.good())
        return 0;
    std::size_t n = 0;
    std::string line;
    while (std::getline(in, line))
        ++n;
    return n;
}

TEST(TraceAbort, TryWriteReportsUnwritablePath)
{
    TraceRecorder t(4);
    t.record(TraceEventKind::Tick, 0.0, {1.0});
    EXPECT_FALSE(
        t.tryWriteJsonl("/nonexistent-dir/heb_trace.jsonl"));
    std::string ok = test::uniqueTempPath("trace.jsonl");
    EXPECT_TRUE(t.tryWriteJsonl(ok));
    EXPECT_EQ(lineCount(ok), 1u);
    std::remove(ok.c_str());
}

TEST(TraceAbort, ExitPathFlushesArmedRecorder)
{
    std::string path = test::uniqueTempPath("trace.jsonl");
    std::remove(path.c_str());
    EXPECT_EXIT(
        {
            TraceRecorder t(8);
            t.record(TraceEventKind::Shed, 1.0,
                     {10.0, 1.0, 5.0});
            t.record(TraceEventKind::Restart, 2.0, {6.0});
            installTraceFlushOnAbort(&t, path);
            std::exit(3); // fatal() ends here too
        },
        ::testing::ExitedWithCode(3), "");
    EXPECT_EQ(lineCount(path), 2u)
        << "armed recorder not flushed on exit";
    std::remove(path.c_str());
}

TEST(TraceAbort, TerminateFlushesArmedRecorder)
{
    // An uncaught throw ends in std::terminate(); call it directly
    // because the death-test harness would intercept the exception
    // before the runtime could.
    std::string path = test::uniqueTempPath("trace.jsonl");
    std::remove(path.c_str());
    EXPECT_DEATH(
        {
            TraceRecorder t(8);
            t.record(TraceEventKind::RideThrough, 3.0,
                     {120.0, 45.0});
            installTraceFlushOnAbort(&t, path);
            std::terminate();
        },
        "");
    EXPECT_EQ(lineCount(path), 1u)
        << "armed recorder not flushed on terminate";
    std::remove(path.c_str());
}

TEST(TraceAbort, ClearedHookWritesNothing)
{
    std::string path = test::uniqueTempPath("trace.jsonl");
    std::remove(path.c_str());
    EXPECT_EXIT(
        {
            TraceRecorder t(8);
            t.record(TraceEventKind::Tick, 0.0, {1.0});
            installTraceFlushOnAbort(&t, path);
            clearTraceFlushOnAbort();
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");
    EXPECT_EQ(lineCount(path), 0u)
        << "disarmed hook still wrote the trace";
}

TEST(TraceAbort, ReinstallReplacesRecorderAndPath)
{
    std::string first = test::uniqueTempPath("first.jsonl");
    std::string second = test::uniqueTempPath("second.jsonl");
    std::remove(first.c_str());
    std::remove(second.c_str());
    EXPECT_EXIT(
        {
            TraceRecorder a(8);
            TraceRecorder b(8);
            a.record(TraceEventKind::Tick, 0.0, {1.0});
            b.record(TraceEventKind::Tick, 0.0, {1.0});
            b.record(TraceEventKind::Tick, 1.0, {2.0});
            installTraceFlushOnAbort(&a, first);
            installTraceFlushOnAbort(&b, second);
            std::exit(5);
        },
        ::testing::ExitedWithCode(5), "");
    EXPECT_EQ(lineCount(first), 0u)
        << "replaced hook still wrote the old path";
    EXPECT_EQ(lineCount(second), 2u);
    std::remove(second.c_str());
}

} // namespace
} // namespace obs
} // namespace heb
