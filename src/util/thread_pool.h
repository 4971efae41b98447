/**
 * @file
 * Fixed-size shared-queue thread pool for the experiment sweeps.
 *
 * A pool of `jobs` execution lanes runs `jobs - 1` worker threads;
 * the thread that calls map() is the remaining lane and helps drain
 * its own batch. That shape has two consequences the sweep engine
 * relies on:
 *
 *  - **No oversubscription.** A sweep of any width runs on at most
 *    `jobs` threads; the unbounded one-thread-per-task std::async
 *    fan-out this replaces could start dozens.
 *  - **No nested-wait deadlock.** A task that itself calls map() on
 *    the same pool makes progress even when every worker is busy,
 *    because the caller always drains its own batch; queued helper
 *    tasks only add concurrency when lanes are free.
 *
 * map() preserves input ordering — results[i] is fn(items[i]) no
 * matter which lane ran it — so a parallel sweep is byte-identical
 * to the serial one. The job count defaults to
 * hardware_concurrency, overridable with the HEB_JOBS environment
 * variable and the --jobs flag of heb_sim and the benches.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace heb {

/** Fixed-size shared-queue worker pool. */
class ThreadPool
{
  public:
    /**
     * @param jobs  Execution lanes (including the mapping caller);
     *              0 means defaultJobs().
     */
    explicit ThreadPool(std::size_t jobs = 0);

    /** Joins the workers; pending queued tasks are still run. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Execution lanes (worker threads + the mapping caller). */
    std::size_t jobs() const { return jobs_; }

    /**
     * Run fn over every item, preserving input order: results[i] is
     * fn(items[i]). The caller participates, so nested map() calls
     * on the same pool cannot deadlock, and a 1-job pool degrades to
     * plain serial execution in the calling thread. The first
     * exception thrown by fn is rethrown here after every item has
     * been attempted.
     */
    template <typename T, typename Fn>
    auto
    map(const std::vector<T> &items, Fn fn)
        -> std::vector<std::invoke_result_t<Fn &, const T &>>
    {
        using R = std::invoke_result_t<Fn &, const T &>;
        static_assert(std::is_default_constructible_v<R>,
                      "ThreadPool::map needs a default-constructible "
                      "result type");
        const std::size_t n = items.size();
        std::vector<R> results(n);
        if (n == 0)
            return results;

        auto batch = std::make_shared<Batch>();
        const T *in = items.data();
        R *out = results.data();
        Fn *f = &fn;
        auto run_one = [batch, in, out, f, n]() {
            for (;;) {
                std::size_t i = batch->next.fetch_add(
                    1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                try {
                    out[i] = (*f)(in[i]);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(batch->mu);
                    if (!batch->error)
                        batch->error = std::current_exception();
                }
                if (batch->done.fetch_add(
                        1, std::memory_order_acq_rel) +
                        1 ==
                    n) {
                    std::lock_guard<std::mutex> lock(batch->mu);
                    batch->cv.notify_all();
                }
            }
        };

        // Helpers only add concurrency; the caller alone completes
        // the batch when every worker is busy (or there are none).
        std::size_t helpers =
            std::min(jobs_ - 1, n - 1);
        for (std::size_t h = 0; h < helpers; ++h)
            enqueue(run_one);
        run_one();

        std::unique_lock<std::mutex> lock(batch->mu);
        batch->cv.wait(lock, [&] {
            return batch->done.load(std::memory_order_acquire) >= n;
        });
        if (batch->error)
            std::rethrow_exception(batch->error);
        return results;
    }

    /**
     * Queue one task and get a future for its result. Called from
     * one of this pool's own workers (or on a 1-job pool, which has
     * no workers) the task runs inline instead of queueing, so a
     * task that submits and then waits cannot deadlock the pool.
     */
    template <typename Fn>
    auto
    submit(Fn fn) -> std::future<std::invoke_result_t<Fn &>>
    {
        using R = std::invoke_result_t<Fn &>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::move(fn));
        std::future<R> future = task->get_future();
        if (jobs_ == 1 || onWorkerThread()) {
            (*task)();
            return future;
        }
        enqueue([task]() { (*task)(); });
        return future;
    }

    /**
     * Job count implied by the environment: HEB_JOBS when set to a
     * positive integer, else hardware_concurrency (at least 1).
     */
    static std::size_t defaultJobs();

    /**
     * The process-wide pool the experiment sweeps share, built with
     * defaultJobs() (or the configureGlobal override) on first use.
     *
     * Fork-safe: a pthread_atfork child handler abandons the
     * inherited pool, whose worker threads do not exist in the
     * child, so exit() or configureGlobal() there never joins them.
     * The husk is deliberately leaked and the child's next global()
     * builds a fresh pool (same override in force).
     */
    static ThreadPool &global();

    /**
     * Replace the global pool with one of @p jobs lanes (0 restores
     * defaultJobs()). Call while no global-pool work is in flight —
     * at CLI startup or between sweeps; the old pool's workers are
     * joined first.
     */
    static void configureGlobal(std::size_t jobs);

  private:
    /** Completion state shared by one map() batch. */
    struct Batch
    {
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::mutex mu;
        std::condition_variable cv;
        std::exception_ptr error; //!< first failure, guarded by mu
    };

    void enqueue(std::function<void()> task);
    void workerLoop();
    bool onWorkerThread() const;

    std::size_t jobs_;
    std::vector<std::thread> workers_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
};

/**
 * Convenience: ThreadPool::global().map(items, fn) — ordered,
 * deterministic parallel map on the shared sweep pool.
 */
template <typename T, typename Fn>
auto
parallelMap(const std::vector<T> &items, Fn fn)
{
    return ThreadPool::global().map(items, std::move(fn));
}

} // namespace heb
