/**
 * @file
 * Fault-injection harness tests: every armed corruption injected into a
 * frame must be caught by the online verifier before it commits, roll
 * back through the verify-recovery path, and leave the architectural
 * record stream bit-identical to a fault-free run.  Damaged trace
 * containers (injection site (a)) are covered in test_tracev3.cc.
 */

#include <gtest/gtest.h>

#include "fault/faultinjector.hh"
#include "sim/simulator.hh"
#include "trace/workload.hh"

using namespace replay;
using namespace replay::sim;
using fault::FaultInjector;
using timing::CycleBin;

namespace {

constexpr uint64_t INSTS = 50000;

RunStats
faultRun(const std::string &workload, Machine machine, double flip_rate,
         double sabotage_rate, uint64_t seed = 1)
{
    SimConfig cfg = SimConfig::make(machine);
    cfg.maxInsts = INSTS;
    cfg.verifyOnline = true;
    cfg.fault.seed = seed;
    cfg.fault.fetchFlipRate = flip_rate;
    cfg.fault.passSabotageRate = sabotage_rate;
    auto src = trace::findWorkload(workload).openTrace(0, INSTS);
    return simulateTrace(cfg, *src, workload);
}

} // namespace

// ---------------------------------------------------------------------
// Online verification, clean runs
// ---------------------------------------------------------------------

TEST(OnlineVerify, CleanRunChecksEveryCommitAndDetectsNothing)
{
    const RunStats stats = faultRun("gzip", Machine::RPO, 0.0, 0.0);
    EXPECT_GT(stats.frameCommits, 0u);
    EXPECT_GT(stats.verifyChecks, 0u);
    EXPECT_EQ(stats.verifyDetections, 0u);
    EXPECT_EQ(stats.corruptFrameCommits, 0u);
    EXPECT_EQ(stats.quarantines, 0u);
    EXPECT_EQ(stats.bins.get(CycleBin::VERIFY), 0u);
    EXPECT_TRUE(stats.archDigestValid);
}

TEST(OnlineVerify, DigestIdenticalAcrossMachines)
{
    // The digest is the architectural state at exactly INSTS retired
    // instructions; the machine only changes timing, never state.
    const uint64_t ic = faultRun("parser", Machine::IC, 0.0, 0.0)
                            .archDigest;
    const uint64_t rp = faultRun("parser", Machine::RP, 0.0, 0.0)
                            .archDigest;
    const uint64_t rpo = faultRun("parser", Machine::RPO, 0.0, 0.0)
                             .archDigest;
    EXPECT_EQ(ic, rp);
    EXPECT_EQ(ic, rpo);
}

TEST(OnlineVerify, ZeroRateMatchesSeedTiming)
{
    // verifyOnline must not perturb timing: same cycles with the
    // verifier on and off.
    SimConfig cfg = SimConfig::make(Machine::RPO);
    cfg.maxInsts = INSTS;
    auto src = trace::findWorkload("gzip").openTrace(0, INSTS);
    const RunStats off = simulateTrace(cfg, *src, "gzip");
    const RunStats on = faultRun("gzip", Machine::RPO, 0.0, 0.0);
    EXPECT_EQ(off.cycles(), on.cycles());
    EXPECT_EQ(off.frameCommits, on.frameCommits);
    EXPECT_EQ(off.uopsExecuted, on.uopsExecuted);
}

// ---------------------------------------------------------------------
// Injected frame corruption: the 100% detection obligation
// ---------------------------------------------------------------------

TEST(FaultInjection, SeededFetchFlipsAllDetectedAndStateClean)
{
    const uint64_t clean_digest =
        faultRun("gzip", Machine::RPO, 0.0, 0.0).archDigest;

    uint64_t total_flips = 0, total_detections = 0;
    for (const uint64_t seed : {1, 7, 23, 99, 1234}) {
        const RunStats stats =
            faultRun("gzip", Machine::RPO, 0.02, 0.0, seed);

        // Obligation: no frame carrying an armed corruption commits.
        EXPECT_EQ(stats.corruptFrameCommits, 0u) << "seed " << seed;
        // Every detection rolled back and quarantined the frame.
        EXPECT_EQ(stats.quarantines, stats.verifyDetections);
        // Recovery is accounted in its own cycle bin.
        if (stats.verifyDetections > 0) {
            EXPECT_GT(stats.bins.get(CycleBin::VERIFY), 0u);
        }
        // Graceful degradation, not divergence: the retired record
        // stream (and so the architectural state at the instruction
        // budget) matches the fault-free run bit for bit.
        EXPECT_EQ(stats.archDigest, clean_digest) << "seed " << seed;

        total_flips += stats.faultsFetchFlip;
        total_detections += stats.verifyDetections;
    }
    // The property is vacuous unless faults were actually injected and
    // actually caught.
    EXPECT_GT(total_flips, 10u);
    EXPECT_GT(total_detections, 0u);
}

TEST(FaultInjection, PassSabotageDetectedBeforeCommit)
{
    const uint64_t clean_digest =
        faultRun("crafty", Machine::RPO, 0.0, 0.0).archDigest;

    uint64_t total_sabotage = 0, total_detections = 0;
    for (const uint64_t seed : {3, 17, 4242}) {
        const RunStats stats =
            faultRun("crafty", Machine::RPO, 0.0, 0.25, seed);
        EXPECT_EQ(stats.corruptFrameCommits, 0u) << "seed " << seed;
        EXPECT_EQ(stats.quarantines, stats.verifyDetections);
        EXPECT_EQ(stats.archDigest, clean_digest) << "seed " << seed;
        total_sabotage += stats.faultsPassSabotage;
        total_detections += stats.verifyDetections;
    }
    EXPECT_GT(total_sabotage, 0u);
    EXPECT_GT(total_detections, 0u);
}

TEST(FaultInjection, QuarantineDegradesToConventionalFetch)
{
    const RunStats stats =
        faultRun("gzip", Machine::RPO, 0.05, 0.0, 11);
    if (stats.verifyDetections == 0)
        GTEST_SKIP() << "no detections at this seed/rate";
    // Quarantined PCs deny frame fetch and candidate construction for
    // a while; the run still completes its full instruction budget.
    EXPECT_GE(stats.x86Retired, INSTS);
    EXPECT_GT(stats.quarantineBlocks + stats.quarantineDrops, 0u);
}

TEST(FaultInjection, DeterministicUnderSeed)
{
    const RunStats a = faultRun("vortex", Machine::RPO, 0.03, 0.1, 5);
    const RunStats b = faultRun("vortex", Machine::RPO, 0.03, 0.1, 5);
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.faultsFetchFlip, b.faultsFetchFlip);
    EXPECT_EQ(a.faultsPassSabotage, b.faultsPassSabotage);
    EXPECT_EQ(a.verifyDetections, b.verifyDetections);
    EXPECT_EQ(a.quarantines, b.quarantines);
    EXPECT_EQ(a.archDigest, b.archDigest);
}

// ---------------------------------------------------------------------
// Injector internals
// ---------------------------------------------------------------------

TEST(FaultInjector, DisabledConfigNeverFires)
{
    fault::FaultConfig cfg;
    EXPECT_FALSE(cfg.enabled());
    FaultInjector injector(cfg);
    opt::OptimizedFrame body;
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(injector.maybeFlipOnFetch(body));
        EXPECT_FALSE(injector.maybeSabotagePass(body));
    }
}

TEST(FaultInjector, EmptyBodyHasNoArmedTarget)
{
    fault::FaultConfig cfg;
    cfg.fetchFlipRate = 1.0;
    FaultInjector injector(cfg);
    opt::OptimizedFrame body;       // no uops, no exit bindings
    EXPECT_FALSE(injector.maybeFlipOnFetch(body));
    EXPECT_EQ(injector.stats().get("no_target"), 1u);
}
