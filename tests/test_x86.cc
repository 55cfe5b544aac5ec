/**
 * @file
 * Unit tests for the x86 subset: instruction properties, assembler
 * layout, functional executor semantics, and memory model.
 */

#include <gtest/gtest.h>

#include "x86/asmbuilder.hh"
#include "x86/disasm.hh"
#include "x86/executor.hh"
#include "x86/inst.hh"

using namespace replay;
using namespace replay::x86;

namespace {

Executor
runProgram(AsmBuilder &b, uint64_t steps)
{
    static std::vector<Program> keep;   // keep programs alive
    keep.push_back(b.build());
    Executor exec(keep.back());
    exec.run(steps);
    return exec;
}

} // namespace

TEST(Flags, CondTakenMatrix)
{
    Flags f;
    f.zf = true;
    EXPECT_TRUE(condTaken(Cond::E, f));
    EXPECT_FALSE(condTaken(Cond::NE, f));
    EXPECT_TRUE(condTaken(Cond::BE, f));
    EXPECT_FALSE(condTaken(Cond::A, f));

    Flags g;
    g.sf = true;
    g.of = false;
    EXPECT_TRUE(condTaken(Cond::L, g));
    EXPECT_FALSE(condTaken(Cond::GE, g));
    EXPECT_TRUE(condTaken(Cond::LE, g));
    EXPECT_FALSE(condTaken(Cond::G, g));

    Flags h;
    h.cf = true;
    EXPECT_TRUE(condTaken(Cond::B, h));
    EXPECT_FALSE(condTaken(Cond::AE, h));
}

TEST(Flags, InvertPairsUp)
{
    for (unsigned i = 0; i < 16; ++i) {
        const Cond cc = static_cast<Cond>(i);
        EXPECT_EQ(invert(invert(cc)), cc);
        // An inverted condition is never taken together with the
        // original.
        for (unsigned raw = 0; raw < 32; ++raw) {
            const Flags f = Flags::unpack(uint8_t(raw));
            EXPECT_NE(condTaken(cc, f), condTaken(invert(cc), f));
        }
    }
}

TEST(Flags, PackUnpackRoundTrip)
{
    for (unsigned raw = 0; raw < 32; ++raw)
        EXPECT_EQ(Flags::unpack(uint8_t(raw)).pack(), raw);
}

TEST(SparseMemory, ZeroFillAndRoundTrip)
{
    SparseMemory mem;
    EXPECT_EQ(mem.read(0x1234, 4), 0u);
    mem.write(0x1234, 4, 0xdeadbeef);
    EXPECT_EQ(mem.read(0x1234, 4), 0xdeadbeefu);
    EXPECT_EQ(mem.read(0x1234, 1), 0xefu);
    EXPECT_EQ(mem.read(0x1236, 2), 0xdeadu);
}

TEST(SparseMemory, CrossPageAccess)
{
    SparseMemory mem;
    mem.write(0x1ffe, 4, 0x11223344);
    EXPECT_EQ(mem.read(0x1ffe, 4), 0x11223344u);
    EXPECT_EQ(mem.read(0x2000, 2), 0x1122u);
    EXPECT_EQ(mem.pageCount(), 2u);
}

TEST(Inst, ModeledLengthsAreRealistic)
{
    Inst push;
    push.mnem = Mnem::PUSH;
    push.form = Form::R;
    push.reg2 = Reg::EBP;
    EXPECT_EQ(push.modeledLength(), 1u);

    Inst movri;
    movri.mnem = Mnem::MOV;
    movri.form = Form::RI;
    movri.reg1 = Reg::EAX;
    movri.imm = 0x12345678;
    EXPECT_EQ(movri.modeledLength(), 5u);

    Inst jcc;
    jcc.mnem = Mnem::JCC;
    jcc.form = Form::REL;
    EXPECT_EQ(jcc.modeledLength(), 6u);
}

TEST(Inst, LoadStoreClassification)
{
    Inst pop;
    pop.mnem = Mnem::POP;
    pop.form = Form::R;
    EXPECT_TRUE(pop.isLoad());
    EXPECT_FALSE(pop.isStore());

    Inst push;
    push.mnem = Mnem::PUSH;
    push.form = Form::R;
    EXPECT_TRUE(push.isStore());
    EXPECT_FALSE(push.isLoad());

    Inst call;
    call.mnem = Mnem::CALL;
    call.form = Form::REL;
    EXPECT_TRUE(call.isStore());
    EXPECT_TRUE(call.isControl());

    Inst alu_rm;
    alu_rm.mnem = Mnem::ADD;
    alu_rm.form = Form::RM;
    EXPECT_TRUE(alu_rm.isLoad());
}

TEST(AsmBuilder, SequentialLayoutAndLabels)
{
    AsmBuilder b(0x1000);
    b.nop();                        // 1 byte
    b.label("target");
    b.movRI(Reg::EAX, 42);          // 5 bytes
    b.jmp("target");
    Program prog = b.build();
    EXPECT_EQ(prog.code().size(), 3u);
    EXPECT_EQ(prog.code()[0].addr, 0x1000u);
    EXPECT_EQ(prog.code()[1].addr, 0x1001u);
    EXPECT_EQ(b.addrOf("target"), 0x1001u);
    EXPECT_EQ(prog.code()[2].inst.target, 0x1001u);
}

TEST(Executor, AluAndFlags)
{
    AsmBuilder b;
    b.movRI(Reg::EAX, 5);
    b.movRI(Reg::EBX, 5);
    b.subRR(Reg::EAX, Reg::EBX);    // 0 -> ZF
    b.jmp("self");
    b.label("self");

    Executor exec = runProgram(b, 3);
    EXPECT_EQ(exec.reg(Reg::EAX), 0u);
    EXPECT_TRUE(exec.flags().zf);
    EXPECT_FALSE(exec.flags().cf);
}

TEST(Executor, SubSetsCarryOnBorrow)
{
    AsmBuilder b;
    b.movRI(Reg::EAX, 3);
    b.subRI(Reg::EAX, 5);
    b.jmp("x");
    b.label("x");
    Executor exec = runProgram(b, 2);
    EXPECT_EQ(exec.reg(Reg::EAX), 0xfffffffeu);
    EXPECT_TRUE(exec.flags().cf);
    EXPECT_TRUE(exec.flags().sf);
}

TEST(Executor, IncPreservesCarry)
{
    AsmBuilder b;
    b.movRI(Reg::EAX, 3);
    b.subRI(Reg::EAX, 5);           // sets CF
    b.incR(Reg::EAX);               // must preserve CF
    b.jmp("x");
    b.label("x");
    Executor exec = runProgram(b, 3);
    EXPECT_TRUE(exec.flags().cf);
}

TEST(Executor, PushPopRoundTrip)
{
    AsmBuilder b;
    b.movRI(Reg::EAX, 0x1111);
    b.movRI(Reg::EBX, 0x2222);
    b.pushR(Reg::EAX);
    b.pushR(Reg::EBX);
    b.popR(Reg::ECX);
    b.popR(Reg::EDX);
    b.jmp("x");
    b.label("x");
    Executor exec = runProgram(b, 6);
    EXPECT_EQ(exec.reg(Reg::ECX), 0x2222u);
    EXPECT_EQ(exec.reg(Reg::EDX), 0x1111u);
    // Stack pointer balanced back to the initial stack top.
    EXPECT_EQ(exec.reg(Reg::ESP), 0x7ffff000u);
}

TEST(Executor, CallRetLinkage)
{
    AsmBuilder b;
    b.call("callee");
    b.label("after");
    b.movRI(Reg::EBX, 7);
    b.jmp("after");
    b.label("callee");
    b.movRI(Reg::EAX, 9);
    b.ret();

    Executor exec = runProgram(b, 4);
    EXPECT_EQ(exec.reg(Reg::EAX), 9u);
    EXPECT_EQ(exec.reg(Reg::EBX), 7u);
}

TEST(Executor, DivFixedRegisters)
{
    AsmBuilder b;
    b.movRI(Reg::EAX, 100);
    b.movRI(Reg::EDX, 0);
    b.movRI(Reg::EBX, 7);
    b.divR(Reg::EBX);
    b.jmp("x");
    b.label("x");
    Executor exec = runProgram(b, 4);
    EXPECT_EQ(exec.reg(Reg::EAX), 14u);     // quotient
    EXPECT_EQ(exec.reg(Reg::EDX), 2u);      // remainder
}

TEST(Executor, MemoryOperandsAndScaledIndex)
{
    AsmBuilder b;
    const uint32_t tab = b.dataRegion("tab", 64);
    b.dataWords("tab", {10, 20, 30, 40});
    b.movRI(Reg::EBX, int32_t(tab));
    b.movRI(Reg::ECX, 2);
    b.movRM(Reg::EAX, memAt(Reg::EBX, Reg::ECX, 4, 0));
    b.addRM(Reg::EAX, memAt(Reg::EBX, 4));
    b.movMR(memAt(Reg::EBX, Reg::ECX, 4, 4), Reg::EAX);
    b.jmp("x");
    b.label("x");
    Executor exec = runProgram(b, 5);
    EXPECT_EQ(exec.reg(Reg::EAX), 50u);     // 30 + 20
    EXPECT_EQ(exec.memory().read(tab + 12, 4), 50u);
}

TEST(Executor, MovzxMovsx)
{
    AsmBuilder b;
    const uint32_t d = b.dataRegion("d", 16);
    b.dataWords("d", {0x000000f0});
    b.movRI(Reg::EBX, int32_t(d));
    b.movzxRM(Reg::EAX, memAt(Reg::EBX, 0), 1);
    b.movsxRM(Reg::ECX, memAt(Reg::EBX, 0), 1);
    b.jmp("x");
    b.label("x");
    Executor exec = runProgram(b, 4);
    EXPECT_EQ(exec.reg(Reg::EAX), 0xf0u);
    EXPECT_EQ(exec.reg(Reg::ECX), 0xfffffff0u);
}

TEST(Executor, SetccWritesLowByteOnly)
{
    AsmBuilder b;
    b.movRI(Reg::EAX, 0x12345678);
    b.cmpRI(Reg::EAX, 0x12345678);
    b.setcc(Cond::E, Reg::EAX);
    b.jmp("x");
    b.label("x");
    Executor exec = runProgram(b, 3);
    EXPECT_EQ(exec.reg(Reg::EAX), 0x12345601u);
}

TEST(Executor, JccTakenAndNotTaken)
{
    AsmBuilder b;
    b.movRI(Reg::EAX, 1);
    b.testRR(Reg::EAX, Reg::EAX);
    b.jcc(Cond::E, "never");        // not taken
    b.movRI(Reg::EBX, 5);
    b.jmp("x");
    b.label("never");
    b.movRI(Reg::EBX, 9);
    b.label("x");
    b.jmp("x");

    Executor exec = runProgram(b, 5);
    EXPECT_EQ(exec.reg(Reg::EBX), 5u);
}

TEST(Executor, StepInfoReportsSideEffects)
{
    AsmBuilder b;
    b.pushI(0x77);
    Program prog = b.build();
    Executor exec(prog);
    StepInfo info;
    exec.step(info);
    ASSERT_EQ(info.memOps.size(), 1u);
    EXPECT_TRUE(info.memOps[0].isStore);
    EXPECT_EQ(info.memOps[0].data, 0x77u);
    ASSERT_EQ(info.regWrites.size(), 1u);
    EXPECT_EQ(info.regWrites[0].reg, Reg::ESP);
}

TEST(Executor, FloatingPointKernel)
{
    AsmBuilder b;
    const uint32_t d = b.dataRegion("f", 32);
    const float two = 2.0f, three = 3.0f;
    uint32_t tw, th;
    memcpy(&tw, &two, 4);
    memcpy(&th, &three, 4);
    b.dataWords("f", {tw, th});
    b.fld(FReg::F0, memAbs(int32_t(d)));
    b.fld(FReg::F1, memAbs(int32_t(d + 4)));
    b.fopFRR(Mnem::FMUL, FReg::F0, FReg::F1);
    b.fst(memAbs(int32_t(d + 8)), FReg::F0);
    b.jmp("x");
    b.label("x");
    Executor exec = runProgram(b, 5);
    const uint32_t raw = exec.memory().read(d + 8, 4);
    float result;
    memcpy(&result, &raw, 4);
    EXPECT_FLOAT_EQ(result, 6.0f);
}

TEST(Disasm, RendersKeyForms)
{
    Inst mov;
    mov.mnem = Mnem::MOV;
    mov.form = Form::RM;
    mov.reg1 = Reg::ECX;
    mov.mem = memAt(Reg::ESP, 0x0c);
    EXPECT_EQ(disassemble(mov), "MOV ECX, [ESP+0x0c]");

    Inst jcc;
    jcc.mnem = Mnem::JCC;
    jcc.form = Form::REL;
    jcc.cc = Cond::NE;
    jcc.target = 0x401234;
    EXPECT_EQ(disassemble(jcc), "JNE 0x00401234");
}

TEST(Program, FatalOnUnplacedAddress)
{
    AsmBuilder b;
    b.nop();
    Program prog = b.build();
    EXPECT_TRUE(prog.contains(prog.entry()));
    EXPECT_FALSE(prog.contains(prog.entry() + 1));
}

// ---------------------------------------------------------------------
// Additional edge cases
// ---------------------------------------------------------------------

TEST(Executor, ImulOverflowSetsCarryAndOverflow)
{
    AsmBuilder b;
    b.movRI(Reg::EAX, 0x40000000);
    b.imulRRI(Reg::EBX, Reg::EAX, 4);       // overflows 32 bits
    b.jmp("x");
    b.label("x");
    Executor exec = runProgram(b, 2);
    EXPECT_TRUE(exec.flags().cf);
    EXPECT_TRUE(exec.flags().of);
}

TEST(Executor, CdqSignFillsEdx)
{
    AsmBuilder b;
    b.movRI(Reg::EAX, -5);
    b.cdq();
    b.movRI(Reg::ECX, 5);
    b.movRR(Reg::EAX, Reg::ECX);
    b.cdq();
    b.jmp("x");
    b.label("x");
    {
        Executor exec = runProgram(b, 2);
        EXPECT_EQ(exec.reg(Reg::EDX), 0xffffffffu);
    }
    {
        AsmBuilder b2;
        b2.movRI(Reg::EAX, 5);
        b2.cdq();
        b2.jmp("x");
        b2.label("x");
        Executor exec = runProgram(b2, 2);
        EXPECT_EQ(exec.reg(Reg::EDX), 0u);
    }
}

TEST(Executor, NegZeroClearsCarry)
{
    AsmBuilder b;
    b.movRI(Reg::EAX, 0);
    b.negR(Reg::EAX);
    b.jmp("x");
    b.label("x");
    Executor exec = runProgram(b, 2);
    EXPECT_FALSE(exec.flags().cf);
    EXPECT_TRUE(exec.flags().zf);
}

TEST(Executor, ShiftFlagSemantics)
{
    AsmBuilder b;
    b.movRI(Reg::EAX, 0x80000000);
    b.shlRI(Reg::EAX, 1);           // shifts the sign bit out -> CF
    b.jmp("x");
    b.label("x");
    {
        Executor exec = runProgram(b, 2);
        EXPECT_TRUE(exec.flags().cf);
        EXPECT_EQ(exec.reg(Reg::EAX), 0u);
    }
    {
        AsmBuilder b2;
        b2.movRI(Reg::EAX, 3);
        b2.sarRI(Reg::EAX, 1);      // CF = last bit shifted out
        b2.jmp("x");
        b2.label("x");
        Executor exec = runProgram(b2, 2);
        EXPECT_TRUE(exec.flags().cf);
        EXPECT_EQ(exec.reg(Reg::EAX), 1u);
    }
}

TEST(Executor, IndirectJumpThroughRegisterAndTable)
{
    AsmBuilder b;
    b.dataRegion("tab", 16);
    b.dataWordLabel("tab", 0, "t0");
    b.dataWordLabel("tab", 1, "t1");
    b.movRI(Reg::ECX, 1);
    b.movRM(Reg::EAX,
            memAt(Reg::NONE, Reg::ECX, 4, int32_t(b.dataAddr("tab"))));
    b.jmpR(Reg::EAX);
    b.label("t0");
    b.movRI(Reg::EBX, 100);
    b.jmp("x");
    b.label("t1");
    b.movRI(Reg::EBX, 200);
    b.label("x");
    b.jmp("x");
    Executor exec = runProgram(b, 4);
    EXPECT_EQ(exec.reg(Reg::EBX), 200u);
}

TEST(Executor, LongflowIsArchitecturalNop)
{
    AsmBuilder b;
    b.movRI(Reg::EAX, 7);
    b.longflow();
    b.jmp("x");
    b.label("x");
    Executor exec = runProgram(b, 2);
    EXPECT_EQ(exec.reg(Reg::EAX), 7u);
}

TEST(Disasm, MemOperandVariants)
{
    Inst lea;
    lea.mnem = Mnem::LEA;
    lea.form = Form::RM;
    lea.reg1 = Reg::EBX;
    lea.mem = memAt(Reg::ESI, Reg::EAX, 4, -8);
    EXPECT_EQ(disassemble(lea), "LEA EBX, [ESI+EAX*4-0x08]");

    Inst movabs;
    movabs.mnem = Mnem::MOV;
    movabs.form = Form::RM;
    movabs.reg1 = Reg::EAX;
    movabs.mem = memAbs(0x1234);
    EXPECT_EQ(disassemble(movabs), "MOV EAX, [0x00001234]");
}
