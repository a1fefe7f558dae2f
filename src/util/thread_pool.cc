#include "util/thread_pool.hpp"

#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>

#include "util/env.hpp"
#include "util/logging.hpp"
#include "util/metrics_hooks.hpp"
#include "util/sync.hpp"

namespace copra {

namespace {

// copra-lint: sanctioned-global(per-thread marker so nested runAll calls degrade to inline execution; never crosses threads)
thread_local bool t_on_worker_thread = false;

} // namespace

ThreadPool::ThreadPool(unsigned threads)
    : owner_pid_(static_cast<long>(::getpid()))
{
    if (threads == 0)
        threads = defaultThreadCount();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    if (!inOwningProcess()) {
        // A forked child (e.g. a gtest death test exiting through the
        // global pool's static destructor) inherits the thread handles
        // but not the threads; join() would block forever on tids that
        // only ever existed in the parent. Detach and walk away — the
        // parent still owns and joins the real threads.
        for (std::thread &worker : workers_)
            worker.detach();
        return;
    }
    {
        util::MutexLock lock(mutex_);
        stop_ = true;
    }
    available_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

size_t
ThreadPool::pending() const
{
    util::MutexLock lock(mutex_);
    return queue_.size();
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    size_t depth;
    {
        util::MutexLock lock(mutex_);
        panicIf(stop_, "thread pool: submit after shutdown");
        queue_.push_back(std::move(task));
        depth = queue_.size();
    }
    available_.notify_one();
    if (const util::PoolMetricsHooks *hooks = util::poolMetricsHooks();
        hooks != nullptr && hooks->taskQueued != nullptr)
        hooks->taskQueued(depth);
}

void
ThreadPool::workerLoop()
{
    t_on_worker_thread = true;
    for (;;) {
        std::function<void()> task;
        {
            util::MutexLock lock(mutex_);
            while (!stop_ && queue_.empty())
                mutex_.wait(available_);
            // Drain remaining work even when stopping, so ~ThreadPool
            // never abandons a task whose future somebody holds.
            if (queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        const util::PoolMetricsHooks *hooks = util::poolMetricsHooks();
        if (hooks != nullptr && hooks->taskExecuted != nullptr) {
            auto start = std::chrono::steady_clock::now();
            task();
            hooks->taskExecuted(std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    start)
                                    .count());
        } else {
            task();
        }
    }
}

bool
ThreadPool::onWorkerThread()
{
    return t_on_worker_thread;
}

bool
ThreadPool::inOwningProcess() const
{
    return owner_pid_ == static_cast<long>(::getpid());
}

unsigned
defaultThreadCount()
{
    if (const char *env = util::envRaw("COPRA_THREADS")) {
        char *end = nullptr;
        long parsed = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && parsed > kMaxPoolThreads)
            fatal("COPRA_THREADS=" + std::string(env) + " exceeds the " +
                  std::to_string(kMaxPoolThreads) + "-worker ceiling");
        if (end != env && *end == '\0' && parsed > 0)
            return static_cast<unsigned>(parsed);
        if (env[0] != '\0')
            warn("ignoring invalid COPRA_THREADS value '" +
                 std::string(env) + "'");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

namespace {

// The process-wide pool singleton (DESIGN.md §7): simulation results
// never flow through it, only work items, so it cannot break
// determinism; it exists exactly once so fork handlers can find it.
// copra-lint: sanctioned-global(thread-pool singleton registry mutex)
util::Mutex g_pool_mutex;
// copra-lint: sanctioned-global(the thread-pool singleton itself)
std::unique_ptr<ThreadPool> g_pool COPRA_GUARDED_BY(g_pool_mutex);
// copra-lint: sanctioned-global(one-shot pthread_atfork registration)
std::once_flag g_atfork_once;

/**
 * The pthread_atfork protocol, spelled as named functions so each can
 * declare its half of the acquire/release pair: prepare takes the
 * registry mutex so the child's copy is never stuck locked, and both
 * continuations release it on their side of the fork.
 */
void
atforkPrepare() COPRA_ACQUIRE(g_pool_mutex)
{
    g_pool_mutex.lock();
}

void
atforkParent() COPRA_RELEASE(g_pool_mutex)
{
    g_pool_mutex.unlock();
}

void
atforkChild() COPRA_RELEASE(g_pool_mutex)
{
    // Leak the child's copy of the pool: it has no worker threads, and
    // even destroying it would block in pthread_cond_destroy (the
    // condvar's copied state still counts the parent's parked workers
    // as waiters).
    g_pool.release();
    g_pool_mutex.unlock();
}

/**
 * A forked child inherits the global pool object but none of its worker
 * threads, and even destroying the copy is unsafe (see atforkChild).
 * (gtest death tests hit exactly this — fork, then exit(1) through the
 * static destructors.) So on fork we leak the child's copy; a child
 * that wants parallelism gets a fresh pool on its next globalPool()
 * call.
 */
void
registerForkHandlers()
{
    std::call_once(g_atfork_once, []() {
        ::pthread_atfork(atforkPrepare, atforkParent, atforkChild);
    });
}

} // namespace

ThreadPool &
globalPool()
{
    registerForkHandlers();
    util::MutexLock lock(g_pool_mutex);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(defaultThreadCount());
    // The reference outlives the lock by design: the pointer itself is
    // guarded (set-once-or-swap under the mutex), while the pool object
    // is internally synchronized.
    return *g_pool;
}

void
setGlobalPoolThreads(unsigned threads)
{
    registerForkHandlers();
    std::unique_ptr<ThreadPool> fresh =
        std::make_unique<ThreadPool>(threads);
    util::MutexLock lock(g_pool_mutex);
    g_pool = std::move(fresh);
}

void
parallelFor(ThreadPool &pool, size_t n,
            const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    if (n < 2 || pool.size() < 2 || ThreadPool::onWorkerThread() ||
        !pool.inOwningProcess()) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Static contiguous partition: chunk c covers [begin, end). The
    // assignment depends only on n and the pool size, never on
    // scheduling, so any per-chunk state a caller keeps is reproducible.
    size_t chunks = std::min<size_t>(n, pool.size());
    std::vector<std::future<void>> futures;
    futures.reserve(chunks);
    for (size_t c = 0; c < chunks; ++c) {
        size_t begin = n * c / chunks;
        size_t end = n * (c + 1) / chunks;
        futures.push_back(pool.submit([&fn, begin, end]() {
            for (size_t i = begin; i < end; ++i)
                fn(i);
        }));
    }
    // Wait for every chunk before rethrowing: the tasks capture fn by
    // reference, so none may outlive this frame.
    std::exception_ptr first_error;
    for (auto &future : futures) {
        try {
            future.get();
        } catch (...) {
            if (!first_error)
                first_error = std::current_exception();
        }
    }
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace copra
