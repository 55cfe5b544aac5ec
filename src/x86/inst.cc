#include "x86/inst.hh"

#include "util/logging.hh"

namespace replay::x86 {

bool
condTaken(Cond cc, const Flags &f)
{
    switch (cc) {
      case Cond::O:  return f.of;
      case Cond::NO: return !f.of;
      case Cond::B:  return f.cf;
      case Cond::AE: return !f.cf;
      case Cond::E:  return f.zf;
      case Cond::NE: return !f.zf;
      case Cond::BE: return f.cf || f.zf;
      case Cond::A:  return !f.cf && !f.zf;
      case Cond::S:  return f.sf;
      case Cond::NS: return !f.sf;
      case Cond::P:  return f.pf;
      case Cond::NP: return !f.pf;
      case Cond::L:  return f.sf != f.of;
      case Cond::GE: return f.sf == f.of;
      case Cond::LE: return f.zf || f.sf != f.of;
      case Cond::G:  return !f.zf && f.sf == f.of;
      default:
        panic("condTaken on invalid condition code %d", int(cc));
    }
}

MemRef
memAt(Reg base, int32_t disp)
{
    MemRef m;
    m.base = base;
    m.disp = disp;
    return m;
}

MemRef
memAt(Reg base, Reg index, uint8_t scale, int32_t disp)
{
    panic_if(scale != 1 && scale != 2 && scale != 4 && scale != 8,
             "illegal scale %u", scale);
    MemRef m;
    m.base = base;
    m.index = index;
    m.scale = scale;
    m.disp = disp;
    return m;
}

MemRef
memAbs(int32_t addr)
{
    MemRef m;
    m.disp = addr;
    return m;
}

namespace {

/** Bytes contributed by a ModRM + SIB + displacement for a MemRef. */
unsigned
memBytes(const MemRef &m)
{
    unsigned len = 1;                       // ModRM
    const bool needSib = m.index != Reg::NONE || m.base == Reg::ESP;
    if (needSib)
        len += 1;
    if (m.base == Reg::NONE) {
        len += 4;                           // absolute disp32
    } else if (m.disp == 0 && m.base != Reg::EBP) {
        len += 0;
    } else if (m.disp >= -128 && m.disp <= 127) {
        len += 1;
    } else {
        len += 4;
    }
    return len;
}

unsigned
immBytes(int64_t imm)
{
    return (imm >= -128 && imm <= 127) ? 1 : 4;
}

} // anonymous namespace

unsigned
Inst::modeledLength() const
{
    switch (mnem) {
      case Mnem::NOP:
        return 1;
      case Mnem::PUSH:
        if (form == Form::R)
            return 1;
        if (form == Form::I)
            return 1 + immBytes(imm);
        return 1 + memBytes(mem);
      case Mnem::POP:
        return 1;
      case Mnem::RET:
        return 1;
      case Mnem::CDQ:
        return 1;
      case Mnem::INC:
      case Mnem::DEC:
        return 1;
      case Mnem::MOV:
        switch (form) {
          case Form::RR: return 2;
          case Form::RI: return 5;          // B8+r imm32
          case Form::RM: return 1 + memBytes(mem);
          case Form::MR: return 1 + memBytes(mem);
          case Form::MI: return 1 + memBytes(mem) + 4;
          default: return 2;
        }
      case Mnem::MOVZX:
      case Mnem::MOVSX:
        return 2 + memBytes(mem);           // 0F escape
      case Mnem::LEA:
        return 1 + memBytes(mem);
      case Mnem::ADD:
      case Mnem::SUB:
      case Mnem::AND:
      case Mnem::OR:
      case Mnem::XOR:
      case Mnem::CMP:
      case Mnem::TEST:
        switch (form) {
          case Form::RR: return 2;
          case Form::RI: return 2 + immBytes(imm);
          case Form::RM: return 1 + memBytes(mem);
          case Form::MR: return 1 + memBytes(mem);
          case Form::MI: return 1 + memBytes(mem) + immBytes(imm);
          default: return 2;
        }
      case Mnem::NEG:
      case Mnem::NOT:
      case Mnem::DIV:
        return form == Form::M ? 1 + memBytes(mem) : 2;
      case Mnem::IMUL:
        if (form == Form::RRI)
            return 2 + immBytes(imm);
        return form == Form::RM ? 2 + memBytes(mem) : 3; // 0F AF /r
      case Mnem::SHL:
      case Mnem::SHR:
      case Mnem::SAR:
        return imm == 1 ? 2 : 3;
      case Mnem::JMP:
        if (form == Form::REL)
            return 5;                       // assume rel32 (hot code)
        return form == Form::R ? 2 : 1 + memBytes(mem);
      case Mnem::JCC:
        return 6;                           // 0F 8x rel32
      case Mnem::CALL:
        return form == Form::REL ? 5 : 2;
      case Mnem::SETCC:
        return 3;
      case Mnem::FLD:
      case Mnem::FST:
        return 1 + memBytes(mem);
      case Mnem::FADD:
      case Mnem::FSUB:
      case Mnem::FMUL:
      case Mnem::FDIV:
        return 2;
      case Mnem::LONGFLOW:
        return 2;
      default:
        return 2;
    }
}

const char *
regName(Reg reg)
{
    static const char *names[] = {"EAX", "ECX", "EDX", "EBX",
                                  "ESP", "EBP", "ESI", "EDI"};
    if (reg == Reg::NONE)
        return "-";
    return names[static_cast<unsigned>(reg)];
}

const char *
fregName(FReg freg)
{
    static const char *names[] = {"F0", "F1", "F2", "F3",
                                  "F4", "F5", "F6", "F7"};
    if (freg == FReg::NONE)
        return "-";
    return names[static_cast<unsigned>(freg)];
}

const char *
mnemName(Mnem mnem)
{
    static const char *names[] = {
        "MOV", "MOVZX", "MOVSX", "LEA", "PUSH", "POP", "ADD", "SUB",
        "AND", "OR", "XOR", "CMP", "TEST", "INC", "DEC", "NEG", "NOT",
        "IMUL", "DIV", "SHL", "SHR", "SAR", "JMP", "JCC", "CALL", "RET",
        "NOP", "CDQ", "SETCC", "FLD", "FST", "FADD", "FSUB", "FMUL",
        "FDIV", "LONGFLOW",
    };
    static_assert(sizeof(names) / sizeof(names[0]) ==
                  static_cast<size_t>(Mnem::NUM_MNEMS));
    return names[static_cast<unsigned>(mnem)];
}

const char *
condName(Cond cc)
{
    static const char *names[] = {"O", "NO", "B", "AE", "E", "NE",
                                  "BE", "A", "S", "NS", "P", "NP",
                                  "L", "GE", "LE", "G"};
    if (cc == Cond::NONE)
        return "-";
    return names[static_cast<unsigned>(cc)];
}

} // namespace replay::x86
