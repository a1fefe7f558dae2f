/**
 * @file
 * A fixed-size task pool for the parallel experiment engine.
 *
 * Every unit of parallel work in copra — predictors sharded by
 * sim::runAll, static branches partitioned by the selective
 * oracle, benchmarks fanned out by the bench harnesses — is independent
 * and owns its state, so the pool needs no work stealing and no task
 * priorities: a mutex-protected FIFO queue drained by a fixed set of
 * workers is enough, and keeps the scheduling easy to reason about.
 *
 * Determinism contract: the pool never introduces nondeterminism by
 * itself. Callers submit index-addressed tasks and collect results by
 * index (parallelFor), so the output of a parallel computation is
 * bit-identical to the serial loop regardless of thread count or
 * scheduling order.
 *
 * Nested parallelism: a task running on a pool worker must never block
 * on futures of tasks queued behind it (all workers could end up
 * waiting on work nobody can start). parallelFor therefore degrades to
 * an inline serial loop when invoked from a worker thread.
 *
 * Fork safety: fork() duplicates the pool object but not its worker
 * threads, so a child process that submits work and waits would hang
 * forever (gtest death tests do exactly this — they fork, then run code
 * that may reach a parallel region before aborting). Three guards keep
 * children safe: the pool records the pid that created it and
 * parallelFor runs inline whenever the caller is not that process; the
 * destructor detaches instead of joining phantom worker handles in a
 * child; and a pthread_atfork handler leaks the child's copy of the
 * global pool outright, because even destroying it would block
 * (pthread_cond_destroy waits for the parent's parked workers, which
 * the condvar's copied state still counts as waiters).
 *
 * Locking discipline (statically checked, DESIGN.md §10): the queue
 * and stop flag are COPRA_GUARDED_BY(mutex_); a Clang build with
 * -DCOPRA_THREAD_SAFETY=ON fails to compile if any new code touches
 * them without holding the mutex.
 */

#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace copra {

/** Fixed-size FIFO task pool. */
class ThreadPool
{
  public:
    /** @param threads Worker count (0 = defaultThreadCount()). */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /** Tasks currently queued (not yet picked up by a worker). */
    size_t pending() const;

    /**
     * Enqueue @p fn for execution on a worker thread.
     *
     * @return A future delivering fn's result (or its exception).
     */
    template <typename F>
    std::future<std::invoke_result_t<F>>
    submit(F &&fn)
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> future = task->get_future();
        enqueue([task]() { (*task)(); });
        return future;
    }

    /**
     * True when the calling thread is a pool worker (of any pool).
     * Parallel helpers use this to fall back to inline execution instead
     * of deadlocking on nested waits.
     */
    static bool onWorkerThread();

    /**
     * True when the calling process is the one whose constructor spawned
     * the workers. After fork() the child sees false — its copy of the
     * pool has no threads, so waiting on it would hang (see the fork
     * safety note above).
     */
    bool inOwningProcess() const;

  private:
    void enqueue(std::function<void()> task) COPRA_EXCLUDES(mutex_);
    void workerLoop() COPRA_EXCLUDES(mutex_);

    mutable util::Mutex mutex_;
    std::condition_variable available_;
    std::deque<std::function<void()>> queue_ COPRA_GUARDED_BY(mutex_);
    // workers_ and owner_pid_ are written only during construction,
    // before any worker can observe them, and read-only afterwards;
    // they need no guard.
    std::vector<std::thread> workers_;
    long owner_pid_ = 0;
    bool stop_ COPRA_GUARDED_BY(mutex_) = false;
};

/**
 * Ceiling on a requested worker count (--threads, COPRA_THREADS). A
 * larger request is a usage error, rejected before any pool is built.
 */
inline constexpr unsigned kMaxPoolThreads = 1024;

/**
 * Worker count used for default-sized pools: the COPRA_THREADS
 * environment variable when set to a positive integer, otherwise
 * std::thread::hardware_concurrency() (minimum 1). A COPRA_THREADS
 * above kMaxPoolThreads is fatal.
 */
unsigned defaultThreadCount();

/**
 * The process-wide pool shared by all parallel helpers. Created on
 * first use with defaultThreadCount() workers unless
 * setGlobalPoolThreads() ran first.
 */
ThreadPool &globalPool();

/**
 * Resize the global pool (tears down the old one; outstanding tasks are
 * drained first). Called by the bench harnesses' --threads flag.
 *
 * @param threads New worker count (0 = defaultThreadCount()).
 */
void setGlobalPoolThreads(unsigned threads);

/**
 * Run fn(0) .. fn(n-1) across @p pool, blocking until all complete.
 * Iterations must be independent; exceptions are rethrown in the
 * caller (first chunk wins). Runs inline when the pool has one worker,
 * when n < 2, when called from a pool worker thread, or when called
 * from a forked child of the pool's owning process (see the nested
 * parallelism and fork safety notes above).
 */
void parallelFor(ThreadPool &pool, size_t n,
                 const std::function<void(size_t)> &fn);

} // namespace copra

