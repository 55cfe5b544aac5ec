/**
 * @file
 * State-verifier tests (§5.1.3), including the system-level property:
 * every frame the constructor+optimizer produce over every synthesized
 * workload transforms architectural state exactly as the original
 * instruction stream does.
 */

#include <algorithm>
#include <cstring>

#include <gtest/gtest.h>

#include "core/aliasprofile.hh"
#include "core/constructor.hh"
#include "core/sequencer.hh"
#include "trace/workload.hh"
#include "uop/translator.hh"
#include "verify/memmap.hh"
#include "verify/verifier.hh"
#include "x86/executor.hh"

using namespace replay;
using namespace replay::verify;
using core::Frame;
using core::FrameCandidate;
using trace::TraceRecord;
using uop::UReg;

namespace {

/** Micro-ops in @p rec's decode flow: the count the retiring path
 *  hands to observe() after decoding the instruction itself. */
unsigned
flowUops(const trace::TraceRecord &rec)
{
    return unsigned(uop::Translator()
                        .translate(rec.inst, rec.pc, rec.pc + rec.length)
                        .size());
}

} // namespace

TEST(MemoryMaps, InitialHoldsPreFrameValues)
{
    std::vector<TraceRecord> records(3);
    records[0].numMemOps = 1;
    records[0].memOps[0] = {false, 0x1000, 4, 0xaabbccdd};  // load
    records[1].numMemOps = 1;
    records[1].memOps[0] = {true, 0x1000, 4, 0x11223344};   // store
    records[2].numMemOps = 1;
    records[2].memOps[0] = {false, 0x1000, 4, 0x11223344};  // reload

    const auto maps = FrameMaps::fromRecords(records);
    // Initial map: the first (pre-store) value.
    EXPECT_EQ(*maps.initial.byte(0x1000), 0xdd);
    EXPECT_EQ(*maps.initial.byte(0x1003), 0xaa);
    // Final map: the stored value.
    EXPECT_EQ(*maps.final.byte(0x1000), 0x44);
}

TEST(MemoryMaps, StoreFirstLocationNotInInitial)
{
    std::vector<TraceRecord> records(2);
    records[0].numMemOps = 1;
    records[0].memOps[0] = {true, 0x2000, 4, 1};
    records[1].numMemOps = 1;
    records[1].memOps[0] = {false, 0x2000, 4, 1};
    const auto maps = FrameMaps::fromRecords(records);
    EXPECT_FALSE(maps.initial.has(0x2000));
    EXPECT_TRUE(maps.final.has(0x2000));
}

// ---------------------------------------------------------------------
// System-level frame verification over the synthesized workloads.
// ---------------------------------------------------------------------

namespace {

opt::ArchState
snapshotState(const x86::Executor &exec)
{
    opt::ArchState st;
    for (unsigned r = 0; r < 8; ++r)
        st.regs[r] = exec.reg(static_cast<x86::Reg>(r));
    for (unsigned f = 0; f < 8; ++f) {
        uint32_t raw;
        const float v = exec.freg(static_cast<x86::FReg>(f));
        std::memcpy(&raw, &v, 4);
        st.regs[unsigned(uop::fpr(static_cast<x86::FReg>(f)))] = raw;
    }
    st.flags = exec.flags();
    return st;
}

core::Frame
buildFrame(const FrameCandidate &cand, const opt::OptimizedFrame &body)
{
    core::Frame frame;
    frame.startPc = cand.startPc;
    frame.pcs = cand.pcs;
    frame.nextPc = cand.nextPc;
    frame.dynamicExit = cand.dynamicExit;
    frame.body = body;
    for (const opt::FrameUop fu : frame.body) {
        if (fu.unsafe && fu.uop.isStore())
            frame.unsafeStores.push_back(
                {fu.uop.instIdx, fu.uop.memSeq});
    }
    std::sort(frame.unsafeStores.begin(), frame.unsafeStores.end());
    return frame;
}

/**
 * Run @p insts instructions of a workload; for every frame candidate,
 * optimize it with @p cfg and verify the optimized frame against the
 * observed records and the machine state at the frame's start.
 *
 * @return the number of frames verified
 */
unsigned
verifyWorkloadFrames(const trace::Workload &w, uint64_t insts,
                     const opt::OptConfig &cfg)
{
    const x86::Program prog = w.buildProgram(0);
    x86::Executor exec(prog);
    core::FrameConstructor ctor;
    core::AliasProfile profile;
    opt::Optimizer optimizer(cfg);
    opt::OptStats stats;

    // Ring of machine states at each retired-instruction boundary.
    std::vector<opt::ArchState> ring(512);
    uint64_t retired = 0;

    unsigned verified = 0;
    x86::StepInfo step;
    TraceRecord rec;
    for (uint64_t i = 0; i < insts; ++i) {
        ring[retired % ring.size()] = snapshotState(exec);
        exec.step(step);
        TraceRecord::fromStep(step, rec);
        ++retired;

        auto cand = ctor.observe(rec, flowUops(rec));
        if (!cand)
            continue;
        EXPECT_EQ(cand->records.size(), cand->pcs.size());
        // A candidate includes its closing instruction exactly when it
        // ends with an unconverted indirect jump (dynamicExit); every
        // other closure (unbiased branch, size limit, long-flow) is
        // caused by an instruction outside the frame.  The ring holds
        // the machine state *before* each retired instruction, so the
        // frame's live-in is the state before its first instruction.
        const size_t n = cand->records.size();
        const uint64_t end = retired - (cand->closedByIncludedInst ? 0 : 1);
        EXPECT_GE(end, n);
        EXPECT_LE(n, ring.size());
        if (end < n || n > ring.size())
            continue;
        const opt::ArchState live_in = ring[(end - n) % ring.size()];

        ctor.materialize(*cand);
        const auto body =
            optimizer.optimize(cand->uops(), cand->blocks(), &profile,
                               stats);
        profile.observeInstance(cand->records);
        const core::Frame frame = buildFrame(*cand, body);
        const auto result =
            verifyFrame(frame, cand->records, live_in);
        EXPECT_TRUE(result.ok)
            << w.name << " frame @0x" << std::hex << frame.startPc
            << std::dec << ": " << result.message;
        ++verified;
        if (!result.ok)
            break;
    }
    return verified;
}

} // namespace

class FrameVerification
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(FrameVerification, OptimizedFramesPreserveArchitecture)
{
    const trace::Workload &w = trace::findWorkload(GetParam());
    const unsigned verified =
        verifyWorkloadFrames(w, 30000, opt::OptConfig::allOn());
    EXPECT_GT(verified, 10u) << "too few frames to be meaningful";
}

TEST_P(FrameVerification, BlockScopeFramesPreserveArchitecture)
{
    const trace::Workload &w = trace::findWorkload(GetParam());
    opt::OptConfig cfg;
    cfg.scope = opt::Scope::BLOCK;
    const unsigned verified = verifyWorkloadFrames(w, 20000, cfg);
    EXPECT_GT(verified, 5u);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, FrameVerification,
    ::testing::Values("bzip2", "crafty", "eon", "gzip", "parser",
                      "twolf", "vortex", "access", "dream", "excel",
                      "lotus", "photo", "power", "sound"));

TEST(Verifier, CatchesCorruptedFrame)
{
    // Build one genuine frame, then corrupt an immediate: the verifier
    // must flag the register (or memory) mismatch.
    const trace::Workload &w = trace::findWorkload("crafty");
    const x86::Program prog = w.buildProgram(0);
    x86::Executor exec(prog);
    core::FrameConstructor ctor;
    opt::Optimizer optimizer;
    opt::OptStats stats;

    std::vector<opt::ArchState> ring(512);
    uint64_t retired = 0;
    x86::StepInfo step;
    TraceRecord rec;
    for (uint64_t i = 0; i < 50000; ++i) {
        ring[retired % ring.size()] = snapshotState(exec);
        exec.step(step);
        TraceRecord::fromStep(step, rec);
        ++retired;
        auto cand = ctor.observe(rec, flowUops(rec));
        if (!cand)
            continue;
        const size_t n = cand->records.size();
        const uint64_t end = retired - (cand->closedByIncludedInst ? 0 : 1);
        if (end < n)
            continue;
        const opt::ArchState live_in = ring[(end - n) % ring.size()];
        ctor.materialize(*cand);
        auto body = optimizer.optimize(cand->uops(), cand->blocks(),
                                       nullptr, stats);
        core::Frame frame = buildFrame(*cand, body);

        // Sanity: the genuine frame verifies.
        const auto good = verifyFrame(frame, cand->records, live_in);
        ASSERT_TRUE(good.ok) << good.message;

        // Corrupt the first ALU immediate we can find.
        for (size_t k = 0; k < frame.body.size(); ++k) {
            if (frame.body.code.op[k] == uop::Op::ADD &&
                frame.body.srcB[k].isNone()) {
                frame.body.code.imm[k] += 4;
                const auto bad =
                    verifyFrame(frame, cand->records, live_in);
                EXPECT_FALSE(bad.ok);
                return;
            }
        }
    }
    FAIL() << "never found a corruptible frame";
}
