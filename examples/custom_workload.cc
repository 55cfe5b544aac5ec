/**
 * @file
 * Define a custom workload personality, synthesize its program, build
 * and verify frames against the state verifier, and measure the
 * optimizer's benefit on it — the full library API without any of the
 * fourteen canned applications.
 *
 *   $ build/examples/custom_workload
 */

#include <cstdio>
#include <algorithm>
#include <cstring>

#include "core/aliasprofile.hh"
#include "core/constructor.hh"
#include "sim/simulator.hh"
#include "trace/workload.hh"
#include "uop/translator.hh"
#include "verify/verifier.hh"

using namespace replay;

namespace {

opt::ArchState
snapshot(const x86::Executor &exec)
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

} // namespace

int
main()
{
    // ---- 1. Describe an application -----------------------------------
    trace::Personality p;
    p.seed = 20260705;
    p.numHotProcs = 6;
    p.segmentsPerProc = 8;
    p.redundantLoadRate = 0.5;      // plenty of removable loads
    p.aliasSegRate = 0.05;          // a little unsafe-store aliasing
    p.biasBits = 8;
    p.fpSegRate = 0.1;
    p.dataKB = 32;

    const x86::Program prog = trace::synthesizeProgram(p);
    std::printf("synthesized program: %zu instructions, %u code bytes\n",
                prog.code().size(), prog.codeBytes());

    // ---- 2. Build frames from its retired stream and verify each -----
    x86::Executor exec(prog);
    core::FrameConstructor ctor;
    const uop::Translator translator;
    core::AliasProfile profile;
    opt::Optimizer optimizer;
    opt::OptStats stats;

    std::vector<opt::ArchState> ring(512);
    uint64_t retired = 0;
    unsigned verified = 0, failed = 0;
    x86::StepInfo step;
    trace::TraceRecord rec;
    for (unsigned i = 0; i < 60000; ++i) {
        ring[retired % ring.size()] = snapshot(exec);
        exec.step(step);
        trace::TraceRecord::fromStep(step, rec);
        ++retired;
        auto cand = ctor.observe(
            rec, unsigned(translator
                              .translate(rec.inst, rec.pc,
                                         rec.pc + rec.length)
                              .size()));
        if (!cand)
            continue;
        const size_t n = cand->records.size();
        const uint64_t end =
            retired - (cand->closedByIncludedInst ? 0 : 1);
        if (end < n || n > ring.size())
            continue;

        ctor.materialize(*cand);
        const auto body = optimizer.optimize(cand->uops(), cand->blocks(),
                                             &profile, stats);
        profile.observeInstance(cand->records);

        core::Frame frame;
        frame.startPc = cand->startPc;
        frame.pcs = cand->pcs;
        frame.nextPc = cand->nextPc;
        frame.dynamicExit = cand->dynamicExit;
        frame.body = body;
        for (const opt::FrameUop fu : frame.body) {
            if (fu.unsafe && fu.uop.isStore())
                frame.unsafeStores.push_back(
                    {fu.uop.instIdx, fu.uop.memSeq});
        }
        std::sort(frame.unsafeStores.begin(), frame.unsafeStores.end());

        const auto result = verify::verifyFrame(
            frame, cand->records, ring[(end - n) % ring.size()]);
        if (result.ok)
            ++verified;
        else {
            ++failed;
            std::printf("  VERIFY FAIL @0x%08x: %s\n", frame.startPc,
                        result.message.c_str());
        }
    }
    std::printf("state verifier: %u frames verified, %u failed\n",
                verified, failed);
    std::printf("optimizer: %.1f%% of micro-ops removed, %.1f%% of "
                "loads (%llu unsafe stores marked)\n\n",
                stats.uopReduction() * 100, stats.loadReduction() * 100,
                (unsigned long long)stats.unsafeStoresMarked);

    // ---- 3. And the end-to-end timing effect ---------------------------
    for (const auto machine : {sim::Machine::RP, sim::Machine::RPO}) {
        auto cfg = sim::SimConfig::make(machine);
        auto src = std::make_unique<trace::ExecutorTraceSource>(
            prog, 200000);
        const auto r = sim::simulateTrace(cfg, *src, "custom");
        std::printf("%-3s  IPC %.3f  (coverage %.0f%%, %llu commits, "
                    "%llu aborts)\n",
                    r.config.c_str(), r.ipc(), r.coverage() * 100,
                    (unsigned long long)r.frameCommits,
                    (unsigned long long)r.frameAborts);
    }
    return 0;
}
