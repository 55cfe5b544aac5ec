/**
 * @file
 * Tests for the rePLay ISA: translator decode flows and the functional
 * equivalence of the micro-op stream with the x86 executor.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "trace/workload.hh"
#include "uop/evaluator.hh"
#include "uop/translator.hh"
#include "x86/asmbuilder.hh"
#include "x86/executor.hh"

using namespace replay;
using namespace replay::uop;
using x86::AsmBuilder;
using x86::Cond;
using x86::memAt;
using x86::Reg;

namespace {

std::vector<Uop>
flowFor(const x86::Inst &inst)
{
    Translator t;
    return t.translate(inst, 0x1000, 0x1000 + inst.modeledLength());
}

} // namespace

TEST(Translator, PushIsStorePlusStackUpdate)
{
    x86::Inst push;
    push.mnem = x86::Mnem::PUSH;
    push.form = x86::Form::R;
    push.reg2 = Reg::EBP;
    const auto flow = flowFor(push);
    ASSERT_EQ(flow.size(), 2u);
    EXPECT_EQ(flow[0].op, Op::STORE);
    EXPECT_EQ(flow[0].srcA, UReg::ESP);
    EXPECT_EQ(flow[0].imm, -4);
    EXPECT_EQ(flow[0].srcB, UReg::EBP);
    EXPECT_EQ(flow[1].op, Op::SUB);
    EXPECT_EQ(flow[1].dst, UReg::ESP);
    EXPECT_FALSE(flow[1].writesFlags);
    EXPECT_TRUE(flow[1].lastOfInst);
    EXPECT_FALSE(flow[0].lastOfInst);
}

TEST(Translator, RetMatchesPaperFlow)
{
    x86::Inst ret;
    ret.mnem = x86::Mnem::RET;
    const auto flow = flowFor(ret);
    ASSERT_EQ(flow.size(), 3u);
    EXPECT_EQ(flow[0].op, Op::LOAD);    // ET <- SS:[ESP]
    EXPECT_EQ(flow[0].srcA, UReg::ESP);
    EXPECT_EQ(flow[0].imm, 0);
    EXPECT_EQ(flow[1].op, Op::ADD);     // ESP <- ESP + 4
    EXPECT_EQ(flow[2].op, Op::JMPI);    // jump (ET)
    EXPECT_EQ(flow[2].srcA, flow[0].dst);
}

TEST(Translator, TwoAddressAluBecomesThreeOperand)
{
    x86::Inst orr;
    orr.mnem = x86::Mnem::OR;
    orr.form = x86::Form::RR;
    orr.reg1 = Reg::EDX;
    orr.reg2 = Reg::EBX;
    const auto flow = flowFor(orr);
    ASSERT_EQ(flow.size(), 1u);
    EXPECT_EQ(flow[0].op, Op::OR);
    EXPECT_EQ(flow[0].dst, UReg::EDX);
    EXPECT_EQ(flow[0].srcA, UReg::EDX);
    EXPECT_EQ(flow[0].srcB, UReg::EBX);
    EXPECT_TRUE(flow[0].writesFlags);
}

TEST(Translator, CmpWritesOnlyFlags)
{
    x86::Inst cmp;
    cmp.mnem = x86::Mnem::CMP;
    cmp.form = x86::Form::RI;
    cmp.reg1 = Reg::EAX;
    cmp.imm = 7;
    const auto flow = flowFor(cmp);
    ASSERT_EQ(flow.size(), 1u);
    EXPECT_EQ(flow[0].op, Op::CMP);
    EXPECT_EQ(flow[0].dst, UReg::NONE);
    EXPECT_TRUE(flow[0].writesFlags);
}

TEST(Translator, DivUsesFixedRegisters)
{
    x86::Inst div;
    div.mnem = x86::Mnem::DIV;
    div.form = x86::Form::R;
    div.reg2 = Reg::EBX;
    const auto flow = flowFor(div);
    ASSERT_EQ(flow.size(), 3u);
    EXPECT_EQ(flow[0].op, Op::DIVQ);
    EXPECT_EQ(flow[0].srcA, UReg::EAX);
    EXPECT_EQ(flow[0].srcC, UReg::EDX);
    EXPECT_EQ(flow[1].op, Op::DIVR);
    EXPECT_EQ(flow[1].dst, UReg::EDX);
    EXPECT_EQ(flow[2].op, Op::MOV);
    EXPECT_EQ(flow[2].dst, UReg::EAX);
}

TEST(Translator, CallPushesReturnAddress)
{
    x86::Inst call;
    call.mnem = x86::Mnem::CALL;
    call.form = x86::Form::REL;
    call.target = 0x5000;
    Translator t;
    const auto flow = t.translate(call, 0x1000, 0x1005);
    ASSERT_EQ(flow.size(), 4u);
    EXPECT_EQ(flow[0].op, Op::LIMM);
    EXPECT_EQ(flow[0].imm, 0x1005);
    EXPECT_EQ(flow[1].op, Op::STORE);
    EXPECT_EQ(flow[2].op, Op::SUB);
    EXPECT_EQ(flow[3].op, Op::JMP);
    EXPECT_EQ(flow[3].target, 0x5000u);
}

TEST(Translator, MemOperandKeepsScaledIndex)
{
    x86::Inst mov;
    mov.mnem = x86::Mnem::MOV;
    mov.form = x86::Form::RM;
    mov.reg1 = Reg::EAX;
    mov.mem = memAt(Reg::EBX, Reg::ECX, 4, 16);
    const auto flow = flowFor(mov);
    ASSERT_EQ(flow.size(), 1u);
    EXPECT_EQ(flow[0].op, Op::LOAD);
    EXPECT_EQ(flow[0].srcA, UReg::EBX);
    EXPECT_EQ(flow[0].srcB, UReg::ECX);
    EXPECT_EQ(flow[0].scale, 4u);
    EXPECT_EQ(flow[0].imm, 16);
}

TEST(Translator, ProvenanceTagging)
{
    x86::Inst push;
    push.mnem = x86::Mnem::PUSH;
    push.form = x86::Form::R;
    push.reg2 = Reg::EAX;
    Translator t;
    const auto flow = t.translate(push, 0xabcd, 0xabce);
    EXPECT_EQ(flow[0].x86Pc, 0xabcdu);
    EXPECT_EQ(flow[0].microIdx, 0u);
    EXPECT_EQ(flow[1].microIdx, 1u);
}

// ---------------------------------------------------------------------
// Functional equivalence: x86 executor vs translated micro-op stream.
// ---------------------------------------------------------------------

namespace {

/**
 * Run @p steps instructions both ways and compare the full
 * architectural state after every instruction.
 */
void
crossCheck(const x86::Program &prog, uint64_t steps)
{
    x86::Executor xexec(prog);

    x86::SparseMemory umem;
    for (const auto &seg : prog.data())
        umem.loadSegment(seg);
    Evaluator ueval(umem);
    ueval.setReg(UReg::ESP, prog.stackTop());
    ueval.setReg(UReg::EBP, prog.stackTop());

    Translator trans;
    uint32_t upc = prog.entry();

    x86::StepInfo info;
    for (uint64_t i = 0; i < steps; ++i) {
        const auto &placed = prog.at(upc);
        xexec.step(info);
        ASSERT_EQ(info.pc, upc) << "diverged at step " << i;

        const auto flow =
            trans.translate(placed.inst, upc, upc + placed.length);
        uint32_t unext = upc + placed.length;
        for (const auto &u : flow) {
            const auto r = ueval.exec(u);
            if (r.isControl && r.taken)
                unext = r.target;
            ASSERT_FALSE(r.asserted);
        }
        upc = unext;

        ASSERT_EQ(upc, info.nextPc)
            << "control divergence at step " << i << " pc=0x" << std::hex
            << info.pc;
        for (unsigned r = 0; r < 8; ++r) {
            ASSERT_EQ(ueval.reg(static_cast<UReg>(r)),
                      xexec.reg(static_cast<Reg>(r)))
                << "reg " << x86::regName(static_cast<Reg>(r))
                << " mismatch after step " << i << " pc=0x" << std::hex
                << info.pc;
        }
        ASSERT_EQ(ueval.flags().pack(), xexec.flags().pack())
            << "flags mismatch after step " << i << " pc=0x" << std::hex
            << info.pc;
        for (unsigned f = 0; f < 8; ++f) {
            uint32_t raw;
            const float fv = xexec.freg(static_cast<x86::FReg>(f));
            std::memcpy(&raw, &fv, 4);
            ASSERT_EQ(ueval.reg(fpr(static_cast<x86::FReg>(f))), raw)
                << "freg mismatch after step " << i;
        }
    }
}

} // namespace

TEST(Equivalence, HandWrittenKernel)
{
    AsmBuilder b;
    const uint32_t d = b.dataRegion("d", 256);
    b.dataWords("d", {1, 2, 3, 4, 5, 6, 7, 8});
    b.movRI(Reg::ESI, int32_t(d));
    b.movRI(Reg::ECX, 4);
    b.label("loop");
    b.movRM(Reg::EAX, memAt(Reg::ESI, 0));
    b.addRM(Reg::EAX, memAt(Reg::ESI, 4));
    b.pushR(Reg::EAX);
    b.popR(Reg::EBX);
    b.movMR(memAt(Reg::ESI, 8), Reg::EBX);
    b.addRI(Reg::ESI, 4);
    b.decR(Reg::ECX);
    b.jcc(Cond::NE, "loop");
    b.label("done");
    b.jmp("done");

    const x86::Program prog = b.build();
    crossCheck(prog, 30);
}

TEST(Equivalence, EverySynthesizedWorkload)
{
    // The strongest translator test: every personality, thousands of
    // dynamic instructions, full state comparison each step.
    for (const auto &w : trace::standardWorkloads()) {
        SCOPED_TRACE(w.name);
        const x86::Program prog = w.buildProgram(0);
        crossCheck(prog, 5000);
    }
}

TEST(UopFormat, RendersPaperStyle)
{
    Uop u;
    u.op = Op::OR;
    u.dst = UReg::EDX;
    u.srcA = UReg::ECX;
    u.srcB = UReg::EBX;
    u.writesFlags = true;
    EXPECT_EQ(format(u), "EDX,flags <- OR ECX, EBX");

    Uop st;
    st.op = Op::STORE;
    st.srcA = UReg::ESP;
    st.imm = -4;
    st.srcB = UReg::EBP;
    EXPECT_EQ(format(st), "[ESP-0x4] <- EBP");
}

TEST(AluSemantics, ShiftFlagBehaviour)
{
    Uop shl;
    shl.op = Op::SHL;
    shl.writesFlags = true;
    const auto r = evalAlu(shl, 0x80000001, 1, 0, x86::Flags{});
    EXPECT_EQ(r.value, 2u);
    EXPECT_TRUE(r.flags.cf);        // bit shifted out
}

TEST(AluSemantics, CarryPreservingAdd)
{
    Uop inc;
    inc.op = Op::ADD;
    inc.flagsCarryOnly = true;
    x86::Flags in;
    in.cf = true;
    const auto r = evalAlu(inc, 7, 1, 0, in);
    EXPECT_EQ(r.value, 8u);
    EXPECT_TRUE(r.flags.cf);        // preserved, not recomputed
}

TEST(AluSemantics, DivQuotientRemainder)
{
    Uop q;
    q.op = Op::DIVQ;
    EXPECT_EQ(evalAlu(q, 100, 7, 0, x86::Flags{}).value, 14u);
    Uop rm;
    rm.op = Op::DIVR;
    EXPECT_EQ(evalAlu(rm, 100, 7, 0, x86::Flags{}).value, 2u);
    // 64-bit dividend through srcC.
    EXPECT_EQ(evalAlu(q, 0, 2, 1, x86::Flags{}).value, 0x80000000u);
}

TEST(Asserts, FireOnFalseCondition)
{
    Uop a;
    a.op = Op::ASSERT;
    a.cc = Cond::NE;
    x86::Flags zf_set;
    zf_set.zf = true;
    EXPECT_TRUE(assertFires(a, zf_set));
    EXPECT_FALSE(assertFires(a, x86::Flags{}));
}
