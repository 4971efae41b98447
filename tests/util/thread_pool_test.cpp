/** @file Shared sweep thread pool (ordering, exceptions, nesting). */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/trace.h"
#include "test_paths.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace heb {
namespace {

TEST(ThreadPool, MapPreservesInputOrdering)
{
    ThreadPool pool(4);
    std::vector<int> items(100);
    std::iota(items.begin(), items.end(), 0);
    // Uneven task latency scrambles completion order; results must
    // still land at their input index.
    auto out = pool.map(items, [](int v) {
        if (v % 7 == 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
        }
        return v * 3;
    });
    ASSERT_EQ(out.size(), items.size());
    for (int v : items)
        EXPECT_EQ(out[static_cast<std::size_t>(v)], v * 3);
}

TEST(ThreadPool, SingleJobPoolRunsSeriallyInCaller)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.jobs(), 1u);
    std::thread::id caller = std::this_thread::get_id();
    std::vector<int> items = {1, 2, 3, 4};
    auto out = pool.map(items, [caller](int v) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        return v + 1;
    });
    EXPECT_EQ(out, (std::vector<int>{2, 3, 4, 5}));
}

TEST(ThreadPool, MapOfEmptyInputReturnsEmpty)
{
    ThreadPool pool(2);
    std::vector<int> none;
    EXPECT_TRUE(pool.map(none, [](int v) { return v; }).empty());
}

TEST(ThreadPool, FirstExceptionPropagatesAfterFullDrain)
{
    // A pooled batch, then the two inline shapes: a 1-job pool and a
    // 1-item batch on a 4-job pool.
    struct Case
    {
        std::size_t jobs;
        int items;
    };
    for (Case c : {Case{4, 50}, Case{1, 50}, Case{4, 1}}) {
        SCOPED_TRACE(::testing::Message()
                     << c.jobs << " jobs, " << c.items << " items");
        const bool inline_path = c.jobs == 1 || c.items == 1;
        ThreadPool pool(c.jobs);
        std::vector<int> items(static_cast<std::size_t>(c.items));
        std::iota(items.begin(), items.end(), 0);
        const int first_bad = c.items == 1 ? 0 : 13;
        std::atomic<int> attempted{0};
        std::mutex mu;
        std::vector<int> order;
        const std::thread::id caller = std::this_thread::get_id();
        try {
            pool.map(items, [&](int v) {
                attempted.fetch_add(1);
                {
                    std::lock_guard<std::mutex> lock(mu);
                    order.push_back(v);
                }
                if (inline_path) {
                    EXPECT_EQ(std::this_thread::get_id(), caller);
                }
                if (v == first_bad || v == first_bad + 7)
                    throw std::runtime_error("boom " +
                                             std::to_string(v));
                return v;
            });
            ADD_FAILURE() << "map must rethrow the batch exception";
        } catch (const std::runtime_error &e) {
            // Inline, "first" is first in input order.
            if (inline_path) {
                EXPECT_EQ(std::string(e.what()),
                          "boom " + std::to_string(first_bad));
            }
        }
        // A failure poisons the batch result but never abandons items.
        EXPECT_EQ(attempted.load(), c.items);
        if (inline_path) {
            EXPECT_EQ(order, items);
        }
    }
}

TEST(ThreadPool, NestedMapOnSamePoolCompletes)
{
    ThreadPool pool(2);
    std::vector<int> outer = {0, 1, 2, 3};
    auto out = pool.map(outer, [&pool](int o) {
        std::vector<int> inner = {1, 2, 3, 4, 5};
        auto sums = pool.map(
            inner, [o](int v) { return o * 100 + v; });
        int total = 0;
        for (int s : sums)
            total += s;
        return total;
    });
    // sum(inner) = 15, plus 5 * o * 100.
    EXPECT_EQ(out, (std::vector<int>{15, 515, 1015, 1515}));
}

TEST(ThreadPool, NestedSubmitFromWorkerRunsInline)
{
    ThreadPool pool(2); // one worker: a queued nested task would hang
    auto outer = pool.submit([&pool]() {
        auto inner = pool.submit([]() { return 41; });
        return inner.get() + 1;
    });
    EXPECT_EQ(outer.get(), 42);
}

TEST(ThreadPool, SubmitOnSingleJobPoolRunsInline)
{
    ThreadPool pool(1);
    auto f = pool.submit([]() { return 7; });
    EXPECT_EQ(f.get(), 7);
}

TEST(ThreadPool, DefaultJobsHonoursEnvironment)
{
    ::setenv("HEB_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultJobs(), 3u);
    ::setenv("HEB_JOBS", "not-a-number", 1);
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
    ::setenv("HEB_JOBS", "0", 1);
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
    ::unsetenv("HEB_JOBS");
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
}

TEST(ThreadPool, ParseJobsAcceptsLaneCountsInRange)
{
    EXPECT_EQ(ThreadPool::parseJobs("1", "--jobs"), 1u);
    EXPECT_EQ(ThreadPool::parseJobs("4", "--jobs"), 4u);
    EXPECT_EQ(ThreadPool::parseJobs("1024", "--jobs"),
              ThreadPool::kMaxJobs);
}

// Only the validation runs here: no pool is built from these counts.
TEST(ThreadPoolDeathTest, ParseJobsRejectsCountsOutOfRange)
{
    EXPECT_EXIT((void)ThreadPool::parseJobs("0", "--jobs"),
                testing::ExitedWithCode(1),
                "--jobs must be from 1 to 1024 lanes, got 0");
    EXPECT_EXIT((void)ThreadPool::parseJobs("-2", "--jobs"),
                testing::ExitedWithCode(1), "--jobs must be from 1");
    EXPECT_EXIT((void)ThreadPool::parseJobs("1025", "--jobs"),
                testing::ExitedWithCode(1),
                "--jobs must be from 1 to 1024 lanes, got 1025");
    EXPECT_EXIT((void)ThreadPool::parseJobs("100000", "--jobs"),
                testing::ExitedWithCode(1), "--jobs must be from 1");
    EXPECT_EXIT((void)ThreadPool::parseJobs("two", "--jobs"),
                testing::ExitedWithCode(1), "--jobs not integral: two");
}

TEST(ThreadPoolDeathTest, HebJobsAboveCeilingIsFatal)
{
    // Too large for any integer type: fatal, not saturated to a
    // huge lane count.
    EXPECT_EXIT(
        {
            ::setenv("HEB_JOBS", "99999999999999999999", 1);
            (void)ThreadPool::defaultJobs();
        },
        testing::ExitedWithCode(1), "HEB_JOBS");
    EXPECT_EXIT(
        {
            ::setenv("HEB_JOBS", "2048", 1);
            (void)ThreadPool::defaultJobs();
        },
        testing::ExitedWithCode(1),
        "HEB_JOBS must be from 1 to 1024 lanes, got 2048");
}

TEST(ThreadPool, BackToBackBatchesRunEveryIndexOnce)
{
    // The fleet's shape: many short batches in a row, so helpers
    // reach a batch early, late or after it finished. A stale helper
    // that ran into the next batch, or a caller that returned before
    // every index ran, shows up as a count other than one.
    constexpr std::size_t kIndices = 16;
    constexpr int kBatches = 100000;
    for (std::size_t jobs : {2u, 4u}) {
        SCOPED_TRACE(::testing::Message() << jobs << " jobs");
        ThreadPool pool(jobs);
        std::array<std::atomic<int>, kIndices> runs{};
        long bad = 0;
        for (int b = 0; b < kBatches; ++b) {
            pool.forEachIndex(kIndices, [&](std::size_t i) {
                runs[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (auto &r : runs)
                bad += r.exchange(0, std::memory_order_relaxed) != 1;
        }
        EXPECT_EQ(bad, 0);
    }
}

TEST(ThreadPool, NestedBatchesInTightLoopRunEveryIndexOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kOuter = 4;
    constexpr std::size_t kInner = 8;
    std::array<std::atomic<int>, kOuter * kInner> runs{};
    long bad = 0;
    for (int b = 0; b < 5000; ++b) {
        pool.forEachIndex(kOuter, [&](std::size_t o) {
            pool.forEachIndex(kInner, [&](std::size_t i) {
                runs[o * kInner + i].fetch_add(
                    1, std::memory_order_relaxed);
            });
        });
        for (auto &r : runs)
            bad += r.exchange(0, std::memory_order_relaxed) != 1;
    }
    EXPECT_EQ(bad, 0);
}

TEST(ThreadPool, ThrowingIndexInTightLoopDrainsEveryBatch)
{
    ThreadPool pool(2);
    constexpr std::size_t kIndices = 16;
    std::array<std::atomic<int>, kIndices> runs{};
    long bad = 0;
    int caught = 0;
    for (int b = 0; b < 20000; ++b) {
        const std::size_t thrower =
            static_cast<std::size_t>(b) % kIndices;
        try {
            pool.forEachIndex(kIndices, [&](std::size_t i) {
                runs[i].fetch_add(1, std::memory_order_relaxed);
                if (i == thrower)
                    throw std::runtime_error("boom");
            });
        } catch (const std::runtime_error &) {
            ++caught;
        }
        for (auto &r : runs)
            bad += r.exchange(0, std::memory_order_relaxed) != 1;
    }
    EXPECT_EQ(caught, 20000);
    EXPECT_EQ(bad, 0);
}

TEST(ThreadPool, ConfigureGlobalResizesSharedPool)
{
    ThreadPool::configureGlobal(2);
    EXPECT_EQ(ThreadPool::global().jobs(), 2u);
    std::vector<int> items = {5, 6};
    auto out = parallelMap(items, [](int v) { return v * v; });
    EXPECT_EQ(out, (std::vector<int>{25, 36}));
    ThreadPool::configureGlobal(0); // restore default sizing
    EXPECT_GE(ThreadPool::global().jobs(), 1u);
}


TEST(ThreadPool, WorkerExceptionMessagePreservedAndPoolReusable)
{
    // Every item throws, so worker threads (not just the caller)
    // hit the throw path; the first captured exception must come
    // back intact through the rethrow in map().
    ThreadPool pool(4);
    std::vector<int> items(64);
    std::iota(items.begin(), items.end(), 0);
    try {
        pool.map(items, [](int) -> int {
            throw std::runtime_error("worker boom");
        });
        FAIL() << "map must rethrow the batch exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "worker boom");
    }

    // A poisoned batch must not wedge the pool: the next map on the
    // same pool completes normally.
    std::vector<int> ok =
        pool.map(items, [](int v) { return v + 1; });
    ASSERT_EQ(ok.size(), items.size());
    EXPECT_EQ(ok[10], 11);
    EXPECT_EQ(ok[63], 64);
}

TEST(ThreadPoolDeathTest, FatalAfterGlobalPoolStartedExits)
{
    // Five lanes: four worker threads are alive when the death test
    // forks. They do not exist in the child, so its fatal() -> exit()
    // must not join them, nor may resizing the pool there. The child
    // stays at one lane: ThreadSanitizer aborts a multi-threaded
    // fork's child that starts threads.
    ThreadPool::configureGlobal(5);
    std::vector<int> items(32, 1);
    auto out = parallelMap(items, [](int v) { return v + 1; });
    ASSERT_EQ(out.size(), items.size());
    ASSERT_EQ(ThreadPool::global().jobs(), 5u);

    EXPECT_EXIT(fatal("child of a pooled parent"),
                testing::ExitedWithCode(1), "child of a pooled parent");
    EXPECT_EXIT(
        {
            ThreadPool::configureGlobal(1);
            auto again =
                parallelMap(items, [](int v) { return v + 2; });
            std::exit(again.back() == 3 ? 0 : 2);
        },
        testing::ExitedWithCode(0), "");
    ThreadPool::configureGlobal(0);
}

TEST(ThreadPoolDeathTest, FatalOnEveryLaneExitsOne)
{
    // fatal() on a worker runs exit(), and so the global pool's
    // destructor, on that worker; joining itself there would throw
    // and abort (status 134). The parent holds no pool threads when
    // it forks, so the child may start its own.
    ThreadPool::configureGlobal(1);
    EXPECT_EXIT(
        {
            ThreadPool::configureGlobal(4);
            ThreadPool::global().forEachIndex(64, [](std::size_t i) {
                fatal("task ", i, " failed");
            });
        },
        testing::ExitedWithCode(1), "task [0-9]+ failed");
    // Only a worker fails here, so its exit() runs the atexit hooks:
    // the armed trace is salvaged.
    const std::string path = test::uniqueTempPath("trace.jsonl");
    std::remove(path.c_str());
    EXPECT_EXIT(
        {
            obs::TraceRecorder trace(8);
            trace.record(obs::TraceEventKind::Shed, 1.0,
                         {10.0, 1.0, 5.0});
            obs::installTraceFlushOnAbort(&trace, path);
            ThreadPool::configureGlobal(4);
            ThreadPool::global()
                .submit([] { fatal("worker task failed"); })
                .wait();
            std::exit(2);
        },
        testing::ExitedWithCode(1), "worker task failed");
    std::ifstream in(path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line))
        ++lines;
    EXPECT_EQ(lines, 1u) << "armed trace not flushed by a worker's fatal";
    std::remove(path.c_str());
    ThreadPool::configureGlobal(0);
}

TEST(ThreadPool, ExceptionFromParallelMapHelperPropagates)
{
    std::vector<int> items = {1, 2, 3};
    EXPECT_THROW(parallelMap(items,
                             [](int v) -> int {
                                 if (v == 2)
                                     throw std::logic_error("bad");
                                 return v;
                             }),
                 std::logic_error);
}

} // namespace
} // namespace heb
