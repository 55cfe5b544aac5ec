/**
 * @file
 * Tests for the deterministic parallel sweep substrate: the job-queue
 * thread pool and its failure propagation, order-independent RunStats
 * merging (the bug that blocked parallelizing the figure sweeps), and
 * bit-identity of sweep results across worker counts and against the
 * serial runner.  These run under ThreadSanitizer in tier-1 (label:
 * sweep).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "sim/sweep.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

using namespace replay;
using namespace replay::sim;

// ---------------------------------------------------------------- pool

TEST(ThreadPool, RunsEverySubmittedJob)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 1000; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WaitThenReuse)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    for (int i = 0; i < 10; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 11);
}

TEST(ThreadPool, WaitOnIdlePoolReturns)
{
    ThreadPool pool(3);
    pool.wait();                        // nothing queued: no deadlock
    EXPECT_EQ(pool.numThreads(), 3u);
}

TEST(ParallelFor, FillsIndexedSlotsForAnyWorkerCount)
{
    for (const unsigned jobs : {1u, 2u, 7u}) {
        std::vector<size_t> slots(100, 0);
        parallelFor(jobs, slots.size(),
                    [&slots](size_t i) { slots[i] = i * i; });
        for (size_t i = 0; i < slots.size(); ++i)
            EXPECT_EQ(slots[i], i * i) << "jobs=" << jobs;
    }
}

// ------------------------------------------- failure propagation

TEST(ParallelFor, ThrowingIterationRethrowsInsteadOfTerminating)
{
    std::atomic<unsigned> executed{0};
    bool caught = false;
    try {
        parallelFor(4, 64, [&](size_t i) {
            if (i == 7)
                throw std::runtime_error("iteration 7 failed");
            ++executed;
        });
    } catch (const std::runtime_error &e) {
        caught = true;
        EXPECT_STREQ(e.what(), "iteration 7 failed");
    }
    EXPECT_TRUE(caught);
    // The failure cancels queued iterations: strictly fewer than all
    // the surviving 63 may run, never more.
    EXPECT_LE(executed.load(), 63u);
}

TEST(ParallelFor, SerialPathPropagatesTheSameWay)
{
    EXPECT_THROW(
        parallelFor(1, 8,
                    [](size_t i) {
                        if (i == 3)
                            throw std::runtime_error("serial fail");
                    }),
        std::runtime_error);
}

TEST(ThreadPool, WaitRethrowsFirstErrorAndPoolStaysUsable)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::logic_error("job error"); });
    EXPECT_THROW(pool.wait(), std::logic_error);
    EXPECT_FALSE(pool.cancelled());     // reset by the failed wait()

    // The pool survives a failed batch: later jobs run normally.
    std::atomic<bool> ran{false};
    pool.submit([&] { ran = true; });
    EXPECT_NO_THROW(pool.wait());
    EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, CooperativeJobsObserveCancellation)
{
    ThreadPool pool(2);
    std::atomic<unsigned> skipped{0};
    pool.submit([&] { throw std::runtime_error("first"); });
    // Give the failure time to land, then submit cooperative jobs.
    pool.submit([&] {
        for (unsigned spin = 0; spin < 1000 && !pool.cancelled(); ++spin)
            std::this_thread::yield();
        if (pool.cancelled())
            ++skipped;
    });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_LE(skipped.load(), 1u);
}

// ------------------------------------------------- digest merge (bug)

namespace {

RunStats
statsWithDigest(uint64_t digest, uint64_t retired)
{
    RunStats s;
    s.archDigest = digest;
    s.archDigestValid = true;
    s.x86Retired = retired;
    return s;
}

} // anonymous namespace

TEST(RunStatsMerge, DigestIndependentOfMergeOrder)
{
    // Regression: the old fold (digest * FNV_PRIME ^ other) made the
    // merged digest depend on completion order, so a parallel sweep
    // would have produced nondeterministic digests.
    const RunStats a = statsWithDigest(0x1111111111111111ULL, 10);
    const RunStats b = statsWithDigest(0x2222222222222222ULL, 20);
    const RunStats c = statsWithDigest(0x3333333333333333ULL, 30);

    RunStats fwd;
    fwd.merge(a);
    fwd.merge(b);
    fwd.merge(c);

    RunStats rev;
    rev.merge(c);
    rev.merge(b);
    rev.merge(a);

    EXPECT_TRUE(fwd.archDigestValid);
    EXPECT_EQ(fwd.archDigest, rev.archDigest);
    EXPECT_EQ(fwd.x86Retired, rev.x86Retired);

    // Associativity: merging a pre-merged pair matches the linear fold.
    RunStats pair = a;
    pair.merge(b);
    RunStats grouped;
    grouped.merge(c);
    grouped.merge(pair);
    EXPECT_EQ(grouped.archDigest, fwd.archDigest);
}

TEST(RunStatsMerge, InvalidDigestDoesNotContaminate)
{
    RunStats merged;
    merged.merge(RunStats{});           // no digest yet
    EXPECT_FALSE(merged.archDigestValid);
    merged.merge(statsWithDigest(0xabcdULL, 5));
    EXPECT_TRUE(merged.archDigestValid);
    EXPECT_EQ(merged.archDigest, 0xabcdULL);
    merged.merge(RunStats{});           // invalid digest is a no-op
    EXPECT_EQ(merged.archDigest, 0xabcdULL);
}

TEST(RunStatsMerge, FingerprintCoversCounters)
{
    RunStats a = statsWithDigest(1, 100);
    RunStats b = statsWithDigest(1, 100);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    b.uopsExecuted = 7;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// --------------------------------------------------------------- sweep

namespace {

std::vector<SweepCell>
smallGrid()
{
    // excel has three hot-spot traces — the multi-trace merge path is
    // exactly where order dependence would show.
    std::vector<SweepCell> cells;
    for (const char *name : {"gzip", "excel"}) {
        for (const Machine m : {Machine::IC, Machine::RPO}) {
            cells.push_back({&trace::findWorkload(name), machineName(m),
                             SimConfig::make(m)});
        }
    }
    return cells;
}

} // anonymous namespace

TEST(Sweep, BitIdenticalAcrossWorkerCounts)
{
    SweepOptions serial;
    serial.jobs = 1;
    serial.instsPerTrace = 8000;
    const auto one = runSweep(smallGrid(), serial);

    SweepOptions parallel4;
    parallel4.jobs = 4;
    parallel4.instsPerTrace = 8000;
    const auto four = runSweep(smallGrid(), parallel4);

    ASSERT_EQ(one.cells.size(), four.cells.size());
    for (size_t i = 0; i < one.cells.size(); ++i)
        EXPECT_EQ(one.cells[i].fingerprint(), four.cells[i].fingerprint())
            << one.cells[i].workload << "/" << one.cells[i].config;
    EXPECT_EQ(one.digest(), four.digest());
}

TEST(Sweep, MatchesSerialRunner)
{
    SweepOptions opts;
    opts.jobs = 4;
    opts.instsPerTrace = 8000;
    const auto sweep = runSweep(smallGrid(), opts);

    size_t i = 0;
    for (const char *name : {"gzip", "excel"}) {
        for (const Machine m : {Machine::IC, Machine::RPO}) {
            const RunStats serial = runWorkload(
                trace::findWorkload(name), SimConfig::make(m), 8000);
            EXPECT_EQ(sweep.cells[i].fingerprint(), serial.fingerprint())
                << name << "/" << machineName(m);
            ++i;
        }
    }
}

TEST(Sweep, ReportsThroughput)
{
    SweepOptions opts;
    opts.jobs = 2;
    opts.instsPerTrace = 2000;
    const auto result = runSweep(smallGrid(), opts);
    EXPECT_EQ(result.jobs, 2u);
    // gzip has 1 trace, excel 3; two configs each.
    EXPECT_EQ(result.traceRuns, 2u * (1u + 3u));
    EXPECT_GT(result.wallSeconds, 0.0);
    EXPECT_GT(result.totalInsts(), 0u);
    EXPECT_GT(result.instsPerSec(), 0.0);
    EXPECT_GT(result.cellsPerSec(), 0.0);
}

TEST(Sweep, RunAllMachinesMatchesRunWorkload)
{
    const auto &w = trace::findWorkload("crafty");
    const auto cells = runAllMachines(w, 8000);
    ASSERT_EQ(cells.size(), 4u);
    size_t i = 0;
    for (const Machine m :
         {Machine::IC, Machine::TC, Machine::RP, Machine::RPO}) {
        const auto serial = runWorkload(w, SimConfig::make(m), 8000);
        EXPECT_EQ(cells[i].fingerprint(), serial.fingerprint());
        ++i;
    }
}

// ------------------------------------------------------- jobs parsing

namespace {

[[noreturn]] void
throwingHandler(const char *, const char *, int, const char *message)
{
    throw std::runtime_error(message);
}

struct EnvGuard
{
    explicit EnvGuard(const char *name) : name_(name)
    {
        if (const char *old = getenv(name))
            saved_ = old;
    }
    ~EnvGuard()
    {
        if (saved_.empty())
            unsetenv(name_);
        else
            setenv(name_, saved_.c_str(), 1);
    }
    const char *name_;
    std::string saved_;
};

} // anonymous namespace

TEST(SweepJobs, EnvOverrideParsedStrictly)
{
    EnvGuard guard("REPLAY_SIM_JOBS");

    setenv("REPLAY_SIM_JOBS", "3", 1);
    EXPECT_EQ(defaultSweepJobs(), 3u);

    DeathHandler prev = setDeathHandler(throwingHandler);
    setenv("REPLAY_SIM_JOBS", "4e2", 1);
    EXPECT_THROW(defaultSweepJobs(), std::runtime_error);
    setenv("REPLAY_SIM_JOBS", "0", 1);
    EXPECT_THROW(defaultSweepJobs(), std::runtime_error);
    setenv("REPLAY_SIM_JOBS", "1000000", 1);
    EXPECT_THROW(defaultSweepJobs(), std::runtime_error);
    setDeathHandler(prev);

    unsetenv("REPLAY_SIM_JOBS");
    EXPECT_GE(defaultSweepJobs(), 1u);
}
