#include "util/threadpool.hh"

#include <algorithm>

#include "util/logging.hh"

namespace replay {

ThreadPool::ThreadPool(unsigned threads)
{
    threads = std::max(threads, 1u);
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    drain();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        if (firstError_) {
            // wait() was never called to collect it; dying with the
            // error swallowed silently would hide real failures.
            // (warn's report mutex is a leaf: it never takes another
            // lock, so reporting from under the pool lock is safe.)
            warn("thread pool destroyed with an uncollected job "
                 "exception");
            firstError_ = nullptr;
        }
    }
    jobReady_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    panic_if(!job, "submitting an empty job");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        panic_if(stopping_, "submitting to a stopping thread pool");
        queue_.push_back(std::move(job));
    }
    jobReady_.notify_one();
}

void
ThreadPool::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock,
                  [this] { return queue_.empty() && active_ == 0; });
}

void
ThreadPool::wait()
{
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        allDone_.wait(lock,
                      [this] { return queue_.empty() && active_ == 0; });
        if (!firstError_)
            return;
        error = firstError_;
        firstError_ = nullptr;
        cancelled_.store(false, std::memory_order_relaxed);
    }
    std::rethrow_exception(error);
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        jobReady_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty())
            return;                     // stopping_ and drained
        std::function<void()> job = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
        lock.unlock();
        std::exception_ptr error;
        try {
            job();
        } catch (...) {
            // Capture instead of letting the exception escape the
            // worker (which would std::terminate the process); the
            // first one is rethrown from wait().
            error = std::current_exception();
            cancelled_.store(true, std::memory_order_relaxed);
        }
        lock.lock();
        if (error && !firstError_)
            firstError_ = error;
        --active_;
        if (queue_.empty() && active_ == 0)
            allDone_.notify_all();
    }
}

void
parallelFor(unsigned jobs, size_t count,
            const std::function<void(size_t)> &fn)
{
    if (jobs <= 1 || count <= 1) {
        for (size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    ThreadPool pool(unsigned(std::min<size_t>(jobs, count)));
    for (size_t i = 0; i < count; ++i) {
        pool.submit([&pool, &fn, i] {
            // After a failure, queued iterations become no-ops: their
            // results would be discarded, and skipping them gets the
            // exception to the caller as fast as possible.
            if (pool.cancelled())
                return;
            fn(i);
        });
    }
    pool.wait();
}

} // namespace replay
