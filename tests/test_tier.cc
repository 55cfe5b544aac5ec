/**
 * @file
 * Tier-stress battery for the background re-optimization engine:
 * BackgroundQueue scheduling/cancellation semantics (including a
 * multi-worker hammer meant to run under TSan), the frame cache's
 * versioned-slot publish protocol, and end-to-end engine runs proving
 * that asynchronous re-optimization converges to the same
 * architectural digest as synchronous full optimization.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "core/framecache.hh"
#include "core/sequencer.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "trace/workload.hh"
#include "util/bgqueue.hh"
#include "util/rng.hh"

using namespace replay;
using core::Frame;
using core::FrameCache;
using core::FramePtr;
using sim::Machine;
using sim::SimConfig;

// ---------------------------------------------------------------------
// BackgroundQueue unit tests
// ---------------------------------------------------------------------

namespace {

struct TestJob
{
    int id = 0;
};

struct TestResult
{
    int id = 0;
};

using TestQueue = BackgroundQueue<TestJob, TestResult>;

/**
 * Two-phase latch: the gate job signals it has been popped by a
 * worker (so the test knows later submissions stay *pending*), then
 * blocks until the test releases it.
 */
struct Gate
{
    std::mutex m;
    std::condition_variable cv;
    bool entered = false;
    bool released = false;

    void
    enter()
    {
        {
            std::lock_guard<std::mutex> lock(m);
            entered = true;
        }
        cv.notify_all();
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return released; });
    }

    void
    waitEntered()
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return entered; });
    }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(m);
            released = true;
        }
        cv.notify_all();
    }
};

} // namespace

TEST(BackgroundQueue, InlineModeRunsOnSubmit)
{
    std::vector<int> ran;
    TestQueue queue(0, [&](TestJob &job) {
        ran.push_back(job.id);
        return TestResult{job.id};
    });
    EXPECT_EQ(queue.numWorkers(), 0u);

    queue.submit(0x1000, 5, TestJob{1});
    queue.submit(0x2000, 9, TestJob{2});
    // Inline mode: each job ran before submit() returned, in
    // submission order (priority only reorders *pending* work).
    EXPECT_EQ(ran, (std::vector<int>{1, 2}));
    EXPECT_EQ(queue.pendingCount(), 0u);
    EXPECT_EQ(queue.executedCount(), 2u);

    ASSERT_TRUE(queue.hasCompleted());
    std::vector<TestResult> results;
    queue.takeCompleted(results);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].id, 1);
    EXPECT_EQ(results[1].id, 2);
    EXPECT_FALSE(queue.hasCompleted());
}

TEST(BackgroundQueue, WorkersPopHighestPriorityFirst)
{
    Gate gate;
    std::mutex order_mutex;
    std::vector<int> order;
    TestQueue queue(1, [&](TestJob &job) {
        if (job.id == 0)
            gate.enter();
        std::lock_guard<std::mutex> lock(order_mutex);
        order.push_back(job.id);
        return TestResult{job.id};
    });

    // The gate job occupies the only worker; everything submitted
    // while it blocks accumulates in the pending list.
    queue.submit(0, 1000, TestJob{0});
    gate.waitEntered();
    queue.submit(1, 1, TestJob{1});
    queue.submit(2, 5, TestJob{2});
    queue.submit(3, 3, TestJob{3});
    EXPECT_EQ(queue.pendingCount(), 3u);

    gate.release();
    queue.waitIdle();
    // Priority order (5, 3, 1), not submission order (1, 5, 3).
    EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 1}));
}

TEST(BackgroundQueue, EqualPrioritiesKeepSubmissionOrder)
{
    Gate gate;
    std::mutex order_mutex;
    std::vector<int> order;
    TestQueue queue(1, [&](TestJob &job) {
        if (job.id == 0)
            gate.enter();
        std::lock_guard<std::mutex> lock(order_mutex);
        order.push_back(job.id);
        return TestResult{job.id};
    });

    queue.submit(0, 1000, TestJob{0});
    gate.waitEntered();
    for (int id = 1; id <= 4; ++id)
        queue.submit(uint64_t(id), 7, TestJob{id});
    gate.release();
    queue.waitIdle();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(BackgroundQueue, CancelDropsPendingItemsForOneKeyOnly)
{
    Gate gate;
    TestQueue queue(1, [&](TestJob &job) {
        if (job.id == 0)
            gate.enter();
        return TestResult{job.id};
    });

    queue.submit(99, 1000, TestJob{0});
    gate.waitEntered();
    queue.submit(42, 1, TestJob{1});
    queue.submit(42, 2, TestJob{2});
    queue.submit(7, 3, TestJob{3});

    // Both pending items for key 42 drop; key 7 survives, and the
    // in-flight gate job is untouched (cancel never reaches running
    // work — staleness is the consumer's problem).
    EXPECT_EQ(queue.cancel(42), 2u);
    EXPECT_EQ(queue.cancel(1234), 0u);
    EXPECT_EQ(queue.pendingCount(), 1u);

    gate.release();
    queue.waitIdle();
    EXPECT_EQ(queue.executedCount(), 2u);   // gate + key 7

    std::vector<TestResult> results;
    queue.takeCompleted(results);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].id, 0);
    EXPECT_EQ(results[1].id, 3);
}

TEST(BackgroundQueue, ShedAllReturnsTheDroppedKeys)
{
    Gate gate;
    TestQueue queue(1, [&](TestJob &job) {
        if (job.id == 0)
            gate.enter();
        return TestResult{job.id};
    });

    queue.submit(5, 1000, TestJob{0});
    gate.waitEntered();
    queue.submit(10, 1, TestJob{1});
    queue.submit(20, 2, TestJob{2});
    queue.submit(30, 3, TestJob{3});

    const std::vector<uint64_t> keys = queue.shedAll();
    EXPECT_EQ(keys, (std::vector<uint64_t>{10, 20, 30}));
    EXPECT_EQ(queue.pendingCount(), 0u);

    gate.release();
    queue.waitIdle();
    EXPECT_EQ(queue.executedCount(), 1u);
}

TEST(BackgroundQueue, RunnerExceptionSurfacesFromWaitIdle)
{
    TestQueue queue(2, [](TestJob &job) -> TestResult {
        if (job.id < 0)
            throw std::runtime_error("worker failure");
        return TestResult{job.id};
    });
    queue.submit(1, 0, TestJob{-1});
    EXPECT_THROW(queue.waitIdle(), std::runtime_error);
    // The queue survives a failed job: later work runs normally.
    queue.submit(2, 0, TestJob{2});
    EXPECT_NO_THROW(queue.waitIdle());
    std::vector<TestResult> results;
    queue.takeCompleted(results);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].id, 2);
}

/**
 * TSan target: four workers racing the producer thread through
 * submit / cancel / shedAll / takeCompleted.  The invariant checked
 * at the end — every submitted job either executed or was dropped by
 * an explicit cancel/shed, and every executed job's result was
 * collected — would be violated by any lost-wakeup or double-pop bug.
 */
TEST(BackgroundQueueStress, ConcurrentSubmitCancelShedHammer)
{
    std::atomic<uint64_t> ran{0};
    TestQueue queue(4, [&](TestJob &job) {
        ran.fetch_add(1, std::memory_order_relaxed);
        return TestResult{job.id};
    });

    Rng rng(0x7135);
    uint64_t submitted = 0, dropped = 0;
    std::vector<TestResult> results;
    for (int step = 0; step < 3000; ++step) {
        switch (rng.below(10)) {
          case 0:
            dropped += queue.cancel(uint64_t(step % 7));
            break;
          case 1:
            if (step % 13 == 0)
                dropped += queue.shedAll().size();
            break;
          case 2:
            if (queue.hasCompleted())
                queue.takeCompleted(results);
            break;
          default:
            queue.submit(uint64_t(step % 7), int64_t(rng.below(5)),
                         TestJob{step});
            ++submitted;
            break;
        }
    }
    queue.waitIdle();
    queue.takeCompleted(results);

    EXPECT_EQ(queue.pendingCount(), 0u);
    EXPECT_EQ(queue.executedCount() + dropped, submitted);
    EXPECT_EQ(results.size(), queue.executedCount());
    EXPECT_EQ(ran.load(), queue.executedCount());
}

TEST(BackgroundQueue, CancelDuringPopWindowRunsToCompletion)
{
    // Documents the cancel(key)-vs-worker-pop window: an item a
    // worker has already popped is beyond cancel's reach — cancel(key)
    // returns 0, the job runs to completion, and its (now stale)
    // result still arrives in the inbox.  Consumers must detect
    // staleness themselves; the tier engine does so with frame-id
    // checks at publication, and keeps the key in its in-flight set
    // until the stale result is drained (which is what re-arms
    // wantsReopt for that frame).
    Gate gate;
    TestQueue queue(1, [&](TestJob &job) {
        if (job.id == 0)
            gate.enter();
        return TestResult{job.id};
    });

    queue.submit(42, 0, TestJob{0});
    gate.waitEntered();
    // The worker holds the popped item; nothing is pending.
    EXPECT_EQ(queue.cancel(42), 0u);
    gate.release();
    queue.waitIdle();

    EXPECT_EQ(queue.executedCount(), 1u);
    std::vector<TestResult> results;
    queue.takeCompleted(results);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].id, 0);
}

// ---------------------------------------------------------------------
// FrameCache versioned-slot publication
// ---------------------------------------------------------------------

namespace {

FramePtr
makeFrame(uint32_t pc, unsigned uops)
{
    auto f = std::make_shared<Frame>();
    f->startPc = pc;
    f->pcs = {pc};
    f->body.resize(uops);
    return f;
}

} // namespace

TEST(FrameCachePublish, SwapUpdatesBodyWithoutTouchingLru)
{
    FrameCache cache(100);
    cache.insert(makeFrame(0x1000, 30));
    cache.insert(makeFrame(0x2000, 30));
    (void)cache.lookup(0x1000);     // 0x2000 is now the LRU entry

    ASSERT_TRUE(cache.publish(0x2000, makeFrame(0x2000, 10)));
    EXPECT_EQ(cache.occupiedUops(), 40u);
    EXPECT_EQ(cache.probe(0x2000)->numUops(), 10u);
    EXPECT_EQ(cache.stats().get("publishes"), 1u);

    // Publication is not a use: 0x2000 must still be the eviction
    // victim when a newcomer needs the space.
    cache.insert(makeFrame(0x3000, 70));
    EXPECT_EQ(cache.probe(0x2000), nullptr);
    EXPECT_NE(cache.probe(0x1000), nullptr);
    EXPECT_NE(cache.probe(0x3000), nullptr);
}

TEST(FrameCachePublish, OversizePublishIsRejectedIntact)
{
    FrameCache cache(100);
    cache.insert(makeFrame(0x1000, 60));
    cache.insert(makeFrame(0x2000, 40));

    // Growing 60 -> 70 would overflow capacity: rejected, untouched.
    EXPECT_FALSE(cache.publish(0x1000, makeFrame(0x1000, 70)));
    EXPECT_EQ(cache.occupiedUops(), 100u);
    EXPECT_EQ(cache.probe(0x1000)->numUops(), 60u);
    EXPECT_EQ(cache.stats().get("publish_rejects"), 1u);

    // Shrinking (the normal re-opt case) always lands.
    EXPECT_TRUE(cache.publish(0x1000, makeFrame(0x1000, 50)));
    EXPECT_EQ(cache.occupiedUops(), 90u);
}

TEST(FrameCacheAudit, OccupancyModelMatchesDirectRecountAfterChurn)
{
    // Tier republication is the one path where a resident body's size
    // changes in place, so drive insert/publish/evict churn and check
    // the O(1) occupancy model against a from-scratch recount at every
    // step.
    FrameCache cache(300);

    auto audit = [&](const char *where) {
        EXPECT_EQ(cache.occupiedUops(), cache.recountUops()) << where;
    };

    for (uint32_t pc = 0x1000; pc < 0x1000 + 8 * 0x100; pc += 0x100)
        cache.insert(makeFrame(pc, 30));
    audit("after inserts (with capacity evictions)");

    // Republish half the residents with shrunken bodies (the normal
    // re-opt outcome), one with a grown body, and one oversize reject.
    unsigned flip = 0;
    for (uint32_t pc = 0x1000; pc < 0x1000 + 8 * 0x100; pc += 0x100) {
        if (!cache.probe(pc))
            continue;
        if (flip++ % 2 == 0) {
            ASSERT_TRUE(cache.publish(pc, makeFrame(pc, 12)));
            audit("after shrinking publish");
        }
    }
    for (uint32_t pc = 0x1000; pc < 0x1000 + 8 * 0x100; pc += 0x100) {
        if (!cache.probe(pc))
            continue;
        EXPECT_TRUE(cache.publish(pc, makeFrame(pc, 40)));
        audit("after growing publish");
        EXPECT_FALSE(cache.publish(pc, makeFrame(pc, 4000)));
        audit("after rejected oversize publish");
        break;
    }

    // Invalidate one, force a capacity eviction, then re-fill; the
    // model must track every departure and arrival exactly.
    cache.invalidate(0x1200);
    audit("after invalidate");
    cache.insert(makeFrame(0x8000, 250));
    audit("after evicting insert");
    cache.insert(makeFrame(0x9000, 25));
    audit("after re-fill");
    EXPECT_GT(cache.stats().get("publishes"), 0u);
}

TEST(FrameCacheEviction, ListenerSeesEveryDepartureButNotPublishes)
{
    FrameCache cache(100);
    std::vector<uint32_t> evicted;
    cache.setEvictionListener(
        [&](uint32_t pc) { evicted.push_back(pc); });

    cache.insert(makeFrame(0x1000, 50));
    cache.insert(makeFrame(0x2000, 40));
    ASSERT_TRUE(cache.publish(0x2000, makeFrame(0x2000, 30)));
    EXPECT_TRUE(evicted.empty());   // a body swap is not a departure

    cache.insert(makeFrame(0x3000, 60));    // capacity-evicts 0x1000
    cache.invalidate(0x2000);
    cache.insert(makeFrame(0x4000, 50));    // capacity-evicts 0x3000
    EXPECT_EQ(evicted,
              (std::vector<uint32_t>{0x1000, 0x2000, 0x3000}));
}

TEST(FrameCachePressure, InsertNeverEvictsThePinnedFrame)
{
    FrameCache cache(100);
    cache.insert(makeFrame(0x1000, 90));
    cache.pin(0x1000);
    // The newcomer cannot fit without evicting the pinned frame: it is
    // rejected, and occupancy is untouched.
    cache.insert(makeFrame(0x2000, 20));
    EXPECT_EQ(cache.probe(0x2000), nullptr);
    EXPECT_NE(cache.probe(0x1000), nullptr);
    EXPECT_EQ(cache.occupiedUops(), 90u);
    cache.unpin();
    cache.insert(makeFrame(0x2000, 20));
    EXPECT_NE(cache.probe(0x2000), nullptr);
}

// ---------------------------------------------------------------------
// End-to-end tiered engine runs
// ---------------------------------------------------------------------

namespace {

sim::RunStats
runTiered(const std::string &app, unsigned workers, bool deterministic,
          uint64_t insts = 30000, bool verify_online = false,
          unsigned fcache_uops = 0)
{
    SimConfig cfg = SimConfig::make(Machine::RPO);
    cfg.maxInsts = insts;
    cfg.verifyOnline = verify_online;
    if (fcache_uops)
        cfg.engine.fcacheCapacityUops = fcache_uops;
    cfg.engine.tier.workers = workers;
    cfg.engine.tier.deterministic = deterministic;
    auto src = trace::findWorkload(app).openTrace(0, cfg.maxInsts);
    sim::Simulator simulator(cfg);
    return simulator.run(*src);
}

/**
 * Every queued re-optimization must be accounted for: published,
 * rejected by the verifier, dropped as stale, cancelled on eviction,
 * or dropped at exit.  A leak in the inflight bookkeeping shows up as
 * an imbalance here.
 */
void
expectTierAccountingBalances(const sim::RunStats &stats)
{
    EXPECT_EQ(stats.tierEnqueues,
              stats.tierPublishes + stats.tierVerifyRejects +
                  stats.tierStaleDrops + stats.tierCancelled +
                  stats.tierDroppedAtExit);
}

} // namespace

TEST(TierEngineRun, BackgroundReoptPublishesHotFrames)
{
    const sim::RunStats stats = runTiered("gzip", 2, false);
    EXPECT_GT(stats.frameCommits, 0u);
    EXPECT_GT(stats.tierEnqueues, 0u);
    EXPECT_GT(stats.tierReopts, 0u);
    EXPECT_GT(stats.tierPublishes, 0u);
    // The full pipeline removes micro-ops the cheap tier could not.
    EXPECT_GT(stats.tierUopsRemoved, 0u);
    EXPECT_EQ(stats.corruptFrameCommits, 0u);
    expectTierAccountingBalances(stats);
}

TEST(TierEngineRun, UntieredRunHasZeroTierCounters)
{
    const sim::RunStats stats = runTiered("gzip", 0, false);
    EXPECT_EQ(stats.tierEnqueues, 0u);
    EXPECT_EQ(stats.tierReopts, 0u);
    EXPECT_EQ(stats.tierPublishes, 0u);
    EXPECT_EQ(stats.tierDroppedAtExit, 0u);
}

TEST(TierEngineRun, DeterministicTierModeIsReproducible)
{
    const sim::RunStats a = runTiered("bzip2", 1, true);
    const sim::RunStats b = runTiered("bzip2", 1, true);
    EXPECT_GT(a.tierPublishes, 0u);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    expectTierAccountingBalances(a);
}

TEST(TierChurn, EvictedFramesCancelTheirPendingReopt)
{
    // A 512-uop cache churns hot crafty frames in and out while one
    // background worker lags behind the enqueue rate.  Every eviction
    // of a frame with a job still pending must cancel that job (the
    // stale-work leak fix); a job already past the pop races the
    // eviction and lands as a stale drop instead.  Either way the
    // accounting must balance — a leak would leave enqueues
    // unaccounted for.
    uint64_t total_hit = 0;
    for (unsigned attempt = 0; attempt < 5; ++attempt) {
        const sim::RunStats stats =
            runTiered("crafty", 1, false, 60000, false, 512);
        EXPECT_GE(stats.x86Retired, 60000u);
        EXPECT_GT(stats.fcacheEvictions, 0u);
        EXPECT_GT(stats.tierEnqueues, 0u);
        expectTierAccountingBalances(stats);
        total_hit += stats.tierCancelled + stats.tierStaleDrops;
        if (total_hit)
            break;
    }
    EXPECT_GT(total_hit, 0u)
        << "churn never intersected in-flight re-opt work";
}

/**
 * The acceptance bar for the whole tier: whether re-optimization runs
 * synchronously at admission (tier off), asynchronously on background
 * workers, or inline in deterministic mode, every workload must retire
 * the same architectural state — same online-verifier digest, zero
 * detections, zero corrupt commits.  Timing may differ (publication
 * points shift); semantics may not.
 */
TEST(TierConvergence, AsyncMatchesSyncArchitecturalDigest)
{
    for (const auto &workload : trace::standardWorkloads()) {
        const sim::RunStats sync =
            runTiered(workload.name, 0, false, 16000, true);
        const sim::RunStats async =
            runTiered(workload.name, 2, false, 16000, true);
        const sim::RunStats det =
            runTiered(workload.name, 1, true, 16000, true);

        ASSERT_TRUE(sync.archDigestValid) << workload.name;
        ASSERT_TRUE(async.archDigestValid) << workload.name;
        ASSERT_TRUE(det.archDigestValid) << workload.name;
        EXPECT_EQ(async.archDigest, sync.archDigest) << workload.name;
        EXPECT_EQ(det.archDigest, sync.archDigest) << workload.name;

        EXPECT_EQ(sync.verifyDetections, 0u) << workload.name;
        EXPECT_EQ(async.verifyDetections, 0u) << workload.name;
        EXPECT_EQ(det.verifyDetections, 0u) << workload.name;
        EXPECT_EQ(async.corruptFrameCommits, 0u) << workload.name;
        EXPECT_EQ(det.corruptFrameCommits, 0u) << workload.name;

        expectTierAccountingBalances(async);
        expectTierAccountingBalances(det);
    }
}

TEST(TierSweep, DeterministicTierDigestStableAcrossJobs)
{
    const auto cells = sim::gridCells(
        {&trace::findWorkload("gzip"), &trace::findWorkload("bzip2")},
        {{"RPO-tier", SimConfig::make(Machine::RPO)}});

    sim::SweepOptions serial;
    serial.jobs = 1;
    serial.instsPerTrace = 8000;
    serial.warmup = false;
    serial.tierWorkers = 1;
    serial.tierDeterministic = true;
    sim::SweepOptions parallel = serial;
    parallel.jobs = 4;

    const auto a = sim::runSweep(cells, serial);
    const auto b = sim::runSweep(cells, parallel);
    EXPECT_GT(a.cells[0].tierEnqueues, 0u);
    EXPECT_EQ(a.digest(), b.digest());
}

/**
 * TSan target for the full publish/acquire protocol: many short
 * tiered runs back to back, with async workers racing the sequencer
 * thread through enqueue, drain, publish, and eviction-cancel (small
 * frame caches keep evictions frequent).  Correctness is the
 * accounting invariant plus a clean online-verifier record on every
 * iteration.
 */
TEST(TierStress, TieredSoakKeepsAccountsBalanced)
{
    for (unsigned round = 0; round < 6; ++round) {
        const auto &workloads = trace::standardWorkloads();
        const auto &workload = workloads[round % workloads.size()];
        const sim::RunStats stats =
            runTiered(workload.name, 2 + round % 3, false, 12000, true,
                      512u << (round % 4));

        EXPECT_GE(stats.x86Retired, 12000u) << workload.name;
        EXPECT_EQ(stats.verifyDetections, 0u) << workload.name;
        EXPECT_EQ(stats.corruptFrameCommits, 0u) << workload.name;
        expectTierAccountingBalances(stats);
    }
}
