#include "engine/thread_pool.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>

#include "observe/trace.h"
#include "support/logging.h"

namespace sparsetir {
namespace engine {

namespace {

/** The pool whose workerLoop owns the current thread, if any. */
thread_local const ThreadPool *tls_worker_pool = nullptr;

/** The CPUs of the calling thread's affinity mask, ascending; empty
 *  when the mask cannot be read. */
std::vector<int>
allowedCpus()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    std::vector<int> cpus;
    if (::sched_getaffinity(0, sizeof mask, &mask) != 0) {
        return cpus;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &mask)) {
            cpus.push_back(cpu);
        }
    }
    return cpus;
}

/** Pin `thread` to `cpu`; false when the kernel refuses. */
bool
pinToCpu(std::thread &thread, int cpu)
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(cpu, &mask);
    return ::pthread_setaffinity_np(thread.native_handle(), sizeof mask,
                                    &mask) == 0;
}

} // namespace

ThreadPool::ThreadPool(int num_threads)
{
    if (num_threads <= 0) {
        num_threads = static_cast<int>(
            std::max(1u, std::thread::hardware_concurrency()));
    }
    std::vector<int> cpus = allowedCpus();
    workers_.reserve(num_threads);
    for (int i = 0; i < num_threads; ++i) {
        workers_.emplace_back([this, i] { workerLoop(i); });
        if (cpus.empty() ||
            !pinToCpu(workers_.back(), cpus[i % cpus.size()])) {
            ++unpinned_;
        }
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread &worker : workers_) {
        worker.join();
    }
}

std::future<void>
ThreadPool::submit(std::function<void()> task)
{
    std::packaged_task<void()> packaged(std::move(task));
    std::future<void> result = packaged.get_future();
    {
        std::lock_guard<std::mutex> lock(mu_);
        ICHECK(!stopping_) << "submit on a stopped thread pool";
        queue_.push_back(std::move(packaged));
    }
    cv_.notify_one();
    return result;
}

bool
ThreadPool::onWorkerThread() const
{
    return tls_worker_pool == this;
}

void
ThreadPool::parallelFor(int64_t n, const std::function<void(int64_t)> &fn)
{
    if (n <= 0) {
        return;
    }
    // Caller-runs paths: singleton ranges and size-1 pools gain
    // nothing from fan-out, and a call from one of our own workers
    // MUST run inline — the worker would otherwise block on futures
    // while occupying the slot its sub-tasks need, and once every
    // worker does that (nested dispatch on a saturated pool) nothing
    // runs anything: deadlock.
    if (n == 1 || size() == 1 || onWorkerThread()) {
        for (int64_t i = 0; i < n; ++i) {
            fn(i);
        }
        return;
    }
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (int64_t i = 0; i < n; ++i) {
        futures.push_back(submit([&fn, i] { fn(i); }));
    }
    // Drain every future so all tasks finish before any capture dies;
    // surface the first failure.
    std::exception_ptr first_error;
    for (auto &future : futures) {
        try {
            future.get();
        } catch (...) {
            if (first_error == nullptr) {
                first_error = std::current_exception();
            }
        }
    }
    if (first_error != nullptr) {
        std::rethrow_exception(first_error);
    }
}

void
ThreadPool::workerLoop(int index)
{
    tls_worker_pool = this;
    // Stage the trace attribution name; costs nothing until (unless)
    // tracing records an event on this thread.
    char name[32];
    std::snprintf(name, sizeof name, "worker-%d", index);
    observe::TraceRecorder::setCurrentThreadName(name);
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                return;  // stopping
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();  // exceptions land in the task's future
    }
}

} // namespace engine
} // namespace sparsetir
