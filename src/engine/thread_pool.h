/**
 * @file
 * Fixed-size worker pool for host-side kernel execution.
 *
 * Tasks are plain closures; submit() returns a future that carries the
 * task's exception, if any, to the waiting caller. The pool is shared
 * by every request of an Engine session. Tasks must not submit() and
 * then block on the resulting futures — but parallelFor() is safe to
 * call from anywhere, including from inside a pool task: it detects
 * worker-thread callers and degrades to caller-runs (inline, serial)
 * instead of blocking a worker slot on work that needs that very
 * slot, which on a saturated pool would deadlock.
 *
 * Each worker is pinned to one CPU: worker i runs on the (i mod n)-th
 * CPU of the affinity mask the constructing thread had, n being that
 * mask's size. Left unpinned, the scheduler tends to queue a
 * dispatch's runner tasks on the CPU that woke them, one after the
 * other, so a fan-out rarely reaches a second core. A worker whose
 * pin fails runs unpinned and counts in unpinnedWorkers().
 */

#ifndef SPARSETIR_ENGINE_THREAD_POOL_H_
#define SPARSETIR_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace sparsetir {
namespace engine {

class ThreadPool
{
  public:
    /** num_threads == 0 picks the hardware concurrency (min 1). */
    explicit ThreadPool(int num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int size() const { return static_cast<int>(workers_.size()); }

    /** Workers whose pin to their CPU failed; they run unpinned. */
    int unpinnedWorkers() const { return unpinned_; }

    /** Enqueue a task; the future rethrows the task's exception. */
    std::future<void> submit(std::function<void()> task);

    /**
     * Run fn(i) for every i in [0, n), distributing across the pool,
     * and block until all complete. Rethrows the first exception
     * (caller-runs paths surface it at the failing index, without
     * running the remaining indices). Callable from any thread,
     * including concurrently and from inside a pool task: a call
     * from one of this pool's own workers runs inline (caller-runs)
     * — a worker blocking on sub-tasks would hold the slot those
     * sub-tasks need, and a saturated pool of such workers deadlocks.
     */
    void parallelFor(int64_t n, const std::function<void(int64_t)> &fn);

    /** True when called from one of THIS pool's worker threads. */
    bool onWorkerThread() const;

  private:
    void workerLoop(int index);

    std::vector<std::thread> workers_;
    std::deque<std::packaged_task<void()>> queue_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_ = false;
    int unpinned_ = 0;
};

} // namespace engine
} // namespace sparsetir

#endif // SPARSETIR_ENGINE_THREAD_POOL_H_
