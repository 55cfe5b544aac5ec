/**
 * @file
 * The x86 subset instruction model.
 *
 * We model a 32-bit x86 subset rich enough to exhibit every inefficiency
 * the paper attributes to the ISA: two-address arithmetic, implicit
 * stack-pointer updates (PUSH/POP/CALL/RET), instructions with fixed
 * register bindings (DIV), flag-producing compares consumed by
 * conditional branches, and memory operands with base+index*scale+disp
 * addressing.  Instructions carry a *modeled* byte length that matches
 * real x86 encodings so the instruction cache behaves realistically, and
 * can also be serialized to a compact byte encoding used by the trace
 * format (the trace reader re-decodes them, mirroring §5.1.1).
 */

#ifndef REPLAY_X86_INST_HH
#define REPLAY_X86_INST_HH

#include <cstdint>
#include <string>

namespace replay::x86 {

/** The eight 32-bit general purpose registers, in x86 encoding order. */
enum class Reg : uint8_t
{
    EAX = 0, ECX, EDX, EBX, ESP, EBP, ESI, EDI,
    NONE = 0xff,
};

constexpr unsigned NUM_GPRS = 8;

/** Floating point registers (flat scalar model, not the x87 stack). */
enum class FReg : uint8_t
{
    F0 = 0, F1, F2, F3, F4, F5, F6, F7,
    NONE = 0xff,
};

constexpr unsigned NUM_FREGS = 8;

/** x86 condition codes (the low nibble of Jcc/SETcc opcodes). */
enum class Cond : uint8_t
{
    O = 0, NO, B, AE, E, NE, BE, A, S, NS, P, NP, L, GE, LE, G,
    NONE = 0xff,
};

/** Invert a condition code (E <-> NE, L <-> GE, ...). */
constexpr Cond
invert(Cond cc)
{
    return static_cast<Cond>(static_cast<uint8_t>(cc) ^ 1);
}

/** Arithmetic flags (EFLAGS subset relevant to the modeled ops). */
struct Flags
{
    bool cf = false;
    bool zf = false;
    bool sf = false;
    bool of = false;
    bool pf = false;

    /** Pack into a small integer for tracing / comparison. */
    uint8_t
    pack() const
    {
        return uint8_t(cf) | uint8_t(zf) << 1 | uint8_t(sf) << 2 |
               uint8_t(of) << 3 | uint8_t(pf) << 4;
    }

    static Flags
    unpack(uint8_t raw)
    {
        Flags f;
        f.cf = raw & 1;
        f.zf = raw & 2;
        f.sf = raw & 4;
        f.of = raw & 8;
        f.pf = raw & 16;
        return f;
    }

    bool operator==(const Flags &) const = default;
};

/** Evaluate a condition code against a flags value. */
bool condTaken(Cond cc, const Flags &flags);

/** Mnemonics of the modeled subset. */
enum class Mnem : uint8_t
{
    MOV,        ///< register/memory/immediate moves
    MOVZX,      ///< zero-extending byte/word load
    MOVSX,      ///< sign-extending byte/word load
    LEA,        ///< address computation
    PUSH,
    POP,
    ADD,
    SUB,
    AND,
    OR,
    XOR,
    CMP,
    TEST,
    INC,
    DEC,
    NEG,
    NOT,
    IMUL,       ///< two/three operand form
    DIV,        ///< EDX:EAX / operand -> EAX remainder in EDX (fixed regs)
    SHL,
    SHR,
    SAR,
    JMP,        ///< direct, or indirect through register/memory
    JCC,
    CALL,       ///< direct, or indirect through register
    RET,
    NOP,
    CDQ,        ///< sign-extend EAX into EDX
    SETCC,
    // Scalar floating point (flat register model).
    FLD,        ///< freg <- mem32
    FST,        ///< mem32 <- freg
    FADD,
    FSUB,
    FMUL,
    FDIV,
    // Rare long-flow instruction: the simulator flushes the pipeline on
    // these, mirroring the paper's handling of segment-descriptor
    // modifiers and call gates (< 0.05% of the dynamic stream there).
    LONGFLOW,
    NUM_MNEMS,
};

/** Operand shape of an instruction. */
enum class Form : uint8_t
{
    NONE,   ///< no operands (NOP, RET, CDQ, LONGFLOW)
    R,      ///< single register (INC, PUSH, POP, NEG, NOT, DIV, CALL/JMP r)
    I,      ///< single immediate (PUSH imm, RET imm ignored)
    RR,     ///< reg, reg
    RI,     ///< reg, imm
    RM,     ///< reg, [mem]  (loads; LEA)
    MR,     ///< [mem], reg  (stores)
    MI,     ///< [mem], imm  (store immediate)
    M,      ///< single memory operand (PUSH [mem], JMP [mem])
    RRI,    ///< reg, reg, imm (IMUL three-operand)
    REL,    ///< pc-relative target (JMP/JCC/CALL direct)
    FR,     ///< single fp register pair ops use FRR
    FRR,    ///< freg, freg
    FM,     ///< freg, [mem] (FLD) or [mem], freg (FST)
};

/** A memory operand: [base + index*scale + disp]. */
struct MemRef
{
    Reg base = Reg::NONE;
    Reg index = Reg::NONE;
    uint8_t scale = 1;      ///< 1, 2, 4, or 8
    int32_t disp = 0;

    bool operator==(const MemRef &) const = default;
};

/** Convenience constructors for memory operands. */
MemRef memAt(Reg base, int32_t disp = 0);
MemRef memAt(Reg base, Reg index, uint8_t scale, int32_t disp = 0);
MemRef memAbs(int32_t addr);

/** One decoded x86 instruction. */
struct Inst
{
    Mnem mnem = Mnem::NOP;
    Form form = Form::NONE;
    Cond cc = Cond::NONE;       ///< for JCC / SETCC
    Reg reg1 = Reg::NONE;       ///< destination-ish register operand
    Reg reg2 = Reg::NONE;       ///< source register operand
    FReg freg1 = FReg::NONE;
    FReg freg2 = FReg::NONE;
    MemRef mem;
    int64_t imm = 0;
    uint32_t target = 0;        ///< absolute target for Form::REL
    uint8_t opSize = 4;         ///< operand size in bytes (1, 2, or 4)

    bool operator==(const Inst &) const = default;

    /** True for instructions that read memory (architecturally). */
    bool isLoad() const;
    /** True for instructions that write memory. */
    bool isStore() const;
    /** True for any control transfer. */
    bool
    isControl() const
    {
        return mnem == Mnem::JMP || mnem == Mnem::JCC ||
               mnem == Mnem::CALL || mnem == Mnem::RET;
    }
    /** True for conditional control transfer. */
    bool isCondBranch() const { return mnem == Mnem::JCC; }

    /**
     * The byte length a real x86 encoder would produce for this
     * instruction (used by the instruction cache model).
     */
    unsigned modeledLength() const;
};

// The predicates run per retired instruction (constructor, predictor,
// simulator), so they are defined here for inlining.

inline bool
Inst::isLoad() const
{
    switch (mnem) {
      case Mnem::MOV:
      case Mnem::MOVZX:
      case Mnem::MOVSX:
      case Mnem::ADD:
      case Mnem::SUB:
      case Mnem::AND:
      case Mnem::OR:
      case Mnem::XOR:
      case Mnem::CMP:
      case Mnem::TEST:
      case Mnem::IMUL:
        return form == Form::RM;
      case Mnem::DIV:
        return form == Form::M;
      case Mnem::POP:
      case Mnem::RET:
        return true;
      case Mnem::PUSH:
      case Mnem::JMP:
      case Mnem::CALL:
        return form == Form::M;
      case Mnem::FLD:
        return true;
      default:
        return false;
    }
}

inline bool
Inst::isStore() const
{
    switch (mnem) {
      case Mnem::MOV:
        return form == Form::MR || form == Form::MI;
      case Mnem::PUSH:
      case Mnem::CALL:          // pushes the return address
        return true;
      case Mnem::FST:
        return true;
      default:
        return false;
    }
}

/** Printable register / mnemonic names. */
const char *regName(Reg reg);
const char *fregName(FReg freg);
const char *mnemName(Mnem mnem);
const char *condName(Cond cc);

} // namespace replay::x86

#endif // REPLAY_X86_INST_HH
