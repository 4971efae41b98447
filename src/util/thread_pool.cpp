#include "util/thread_pool.h"

#include <pthread.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "util/config.h"
#include "util/logging.h"

namespace heb {

namespace {

/** The pool a worker thread belongs to, for inline nested submit. */
thread_local const ThreadPool *t_worker_pool = nullptr;

std::mutex &
globalPoolMutex()
{
    static std::mutex mu;
    return mu;
}

} // namespace

/**
 * Owner of the global pool. At exit it stops the workers but never
 * frees the pool: fatal() in a task runs exit() on that worker while
 * the caller's lane may still be queueing on the pool.
 */
struct GlobalPoolSlot
{
    ThreadPool *pool = nullptr;
    ~GlobalPoolSlot()
    {
        if (pool)
            pool->stopWorkers();
    }
};

namespace {

GlobalPoolSlot &
globalPoolSlot()
{
    static GlobalPoolSlot slot;
    return slot;
}

std::size_t &
globalJobsOverride()
{
    static std::size_t jobs = 0;
    return jobs;
}

/**
 * Hold the global-pool mutex across fork() so the child inherits it
 * in a known state, then abandon the inherited pool in the child:
 * leak it, because ~ThreadPool would join worker threads that died
 * in the fork. Registered once, by the first global() call — before
 * that there is no pool to inherit.
 */
void
installForkHandlers()
{
    static const int rc = ::pthread_atfork(
        [] { globalPoolMutex().lock(); },
        [] { globalPoolMutex().unlock(); },
        [] {
            globalPoolSlot().pool = nullptr;
            globalPoolMutex().unlock();
        });
    if (rc != 0)
        fatal("pthread_atfork failed: error ", rc);
}

} // namespace

ThreadPool::ThreadPool(std::size_t jobs)
    : jobs_(jobs == 0 ? defaultJobs() : jobs)
{
    // The caller of map() is one lane; spawn the rest.
    workers_.reserve(jobs_ - 1);
    for (std::size_t i = 0; i + 1 < jobs_; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool() { stopWorkers(); }

void
ThreadPool::stopWorkers()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread &w : workers_) {
        // exit() called by one of this pool's own tasks (fatal() on a
        // worker) stops the pool on that worker; it cannot join
        // itself, and it never returns to the loop.
        if (w.get_id() == std::this_thread::get_id())
            w.detach();
        else if (w.joinable())
            w.join();
    }
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    t_worker_pool = this;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [&] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

bool
ThreadPool::onWorkerThread() const
{
    return t_worker_pool == this;
}

std::size_t
ThreadPool::parseJobs(const std::string &text, const std::string &what)
{
    long long n = parseNumber<long long>(text, what);
    if (n < 1 || static_cast<unsigned long long>(n) > kMaxJobs)
        fatal(what, " must be from 1 to ", kMaxJobs, " lanes, got ",
              text);
    return static_cast<std::size_t>(n);
}

std::size_t
ThreadPool::defaultJobs()
{
    if (const char *env = std::getenv("HEB_JOBS")) {
        // A positive digit string is a lane count and must be in
        // range; anything else is a stray setting, warned about and
        // ignored.
        std::string text = env;
        if (text.find_first_not_of("0123456789") == std::string::npos &&
            text.find_first_not_of('0') != std::string::npos)
            return parseJobs(text, "HEB_JOBS");
        warn("ignoring HEB_JOBS='", env,
             "' (want a positive integer)");
    }
    return std::max<std::size_t>(
        1, std::thread::hardware_concurrency());
}

ThreadPool &
ThreadPool::global()
{
    installForkHandlers();
    std::lock_guard<std::mutex> lock(globalPoolMutex());
    ThreadPool *&pool = globalPoolSlot().pool;
    if (!pool)
        pool = new ThreadPool(globalJobsOverride());
    return *pool;
}

void
ThreadPool::configureGlobal(std::size_t jobs)
{
    std::lock_guard<std::mutex> lock(globalPoolMutex());
    globalJobsOverride() = jobs;
    ThreadPool *&pool = globalPoolSlot().pool;
    delete pool;
    pool = nullptr;
}

} // namespace heb
