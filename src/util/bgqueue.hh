/**
 * @file
 * A keyed, prioritized background work queue over the ThreadPool.
 *
 * The tiered re-optimization engine needs more than a FIFO job queue:
 * work items carry a key (the frame's start PC) so pending work can be
 * cancelled when the frame it targets is evicted, a priority so the
 * hottest frames are re-optimized first, and a drop-everything shed
 * path for end-of-run teardown.  BackgroundQueue packages that on top
 * of ThreadPool:
 *
 *   - submit(key, priority, job) enqueues one item and wakes a worker;
 *     workers always pop the highest-priority pending item (FIFO among
 *     equals), not submission order,
 *   - cancel(key) / shedAll() drop *pending* items only — an item a
 *     worker already popped runs to completion, and the consumer is
 *     expected to detect and discard its stale result (the tier engine
 *     does this with frame id/generation checks),
 *   - completed results accumulate in an internal inbox the producer
 *     thread drains at its convenience (takeCompleted),
 *   - workers == 0 selects *inline* mode: submit() runs the job on the
 *     calling thread immediately.  This is the deterministic tier mode
 *     — identical code path, no scheduler in the loop.
 *
 * Failure semantics follow ThreadPool: a runner that throws cancels
 * the pool and the exception resurfaces from the next waitIdle().
 */

#ifndef REPLAY_UTIL_BGQUEUE_HH
#define REPLAY_UTIL_BGQUEUE_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "util/threadpool.hh"

namespace replay {

/** Keyed priority work queue.  Job and Result must be movable. */
template <typename Job, typename Result>
class BackgroundQueue
{
  public:
    using Runner = std::function<Result(Job &)>;

    /** @p workers == 0 runs jobs inline on the submitting thread. */
    BackgroundQueue(unsigned workers, Runner runner)
        : runner_(std::move(runner))
    {
        if (workers > 0)
            pool_ = std::make_unique<ThreadPool>(workers);
    }

    /** Drops pending items, then drains in-flight work (never throws). */
    ~BackgroundQueue()
    {
        shedAll();
        // The ThreadPool destructor drains the remaining pump jobs
        // (each finds an empty pending list and returns) and warns if
        // a job error was never collected.
        pool_.reset();
    }

    BackgroundQueue(const BackgroundQueue &) = delete;
    BackgroundQueue &operator=(const BackgroundQueue &) = delete;

    /**
     * Enqueue one item.  Inline mode runs it before returning; pool
     * mode wakes a worker that pops the best pending item (which may
     * be a different, higher-priority one).
     */
    void
    submit(uint64_t key, int64_t priority, Job job)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            pending_.push_back(
                {key, priority, nextSeq_++, std::move(job)});
        }
        if (pool_)
            pool_->submit([this] { pump(); });
        else
            pump();
    }

    /** Drop every pending item with @p key; returns how many. */
    unsigned
    cancel(uint64_t key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        unsigned dropped = 0;
        for (size_t i = 0; i < pending_.size();) {
            if (pending_[i].key == key) {
                pending_.erase(pending_.begin() + long(i));
                ++dropped;
            } else {
                ++i;
            }
        }
        return dropped;
    }

    /** Drop every pending item; returns the dropped keys. */
    std::vector<uint64_t>
    shedAll()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<uint64_t> keys;
        keys.reserve(pending_.size());
        for (const auto &e : pending_)
            keys.push_back(e.key);
        pending_.clear();
        return keys;
    }

    /** Cheap (lock-free) check whether takeCompleted() would yield. */
    bool
    hasCompleted() const
    {
        return completedCount_.load(std::memory_order_acquire) > 0;
    }

    /** Move all completed results into @p out (appended). */
    void
    takeCompleted(std::vector<Result> &out)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &r : completed_)
            out.push_back(std::move(r));
        completed_.clear();
        completedCount_.store(0, std::memory_order_release);
    }

    /**
     * Block until every submitted item has either run or been
     * dropped.  Rethrows the first runner exception, if any.
     */
    void
    waitIdle()
    {
        if (pool_)
            pool_->wait();
    }

    size_t
    pendingCount() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return pending_.size();
    }

    /** Jobs actually executed (not cancelled or shed). */
    uint64_t
    executedCount() const
    {
        return executed_.load(std::memory_order_relaxed);
    }

    unsigned numWorkers() const { return pool_ ? pool_->numThreads() : 0; }

  private:
    struct Entry
    {
        uint64_t key;
        int64_t priority;
        uint64_t seq;       ///< submission order: FIFO among equals
        Job job;
    };

    /** One worker wakeup: pop and run the best pending item. */
    void
    pump()
    {
        Entry entry{0, 0, 0, Job{}};
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (pending_.empty())
                return;     // cancelled or shed since submission
            size_t best = 0;
            for (size_t i = 1; i < pending_.size(); ++i) {
                const Entry &e = pending_[i];
                const Entry &b = pending_[best];
                if (e.priority > b.priority ||
                    (e.priority == b.priority && e.seq < b.seq)) {
                    best = i;
                }
            }
            entry = std::move(pending_[best]);
            pending_.erase(pending_.begin() + long(best));
        }
        Result result = runner_(entry.job);
        executed_.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            completed_.push_back(std::move(result));
            completedCount_.store(completed_.size(),
                                  std::memory_order_release);
        }
    }

    Runner runner_;
    std::unique_ptr<ThreadPool> pool_;
    mutable std::mutex mutex_;      ///< guards pending_ .. nextSeq_
    std::deque<Entry> pending_;
    std::deque<Result> completed_;
    std::atomic<size_t> completedCount_{0};
    std::atomic<uint64_t> executed_{0};
    uint64_t nextSeq_ = 0;
};

} // namespace replay

#endif // REPLAY_UTIL_BGQUEUE_HH
