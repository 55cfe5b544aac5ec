#include "trace/chunk.hh"

#include <algorithm>

namespace replay::trace::wire {

namespace {

void
encodeInst(Encoder &e, const x86::Inst &in)
{
    e.u8(uint8_t(in.mnem));
    e.u8(uint8_t(in.form));
    e.u8(uint8_t(in.cc));
    e.u8(uint8_t(in.reg1));
    e.u8(uint8_t(in.reg2));
    e.u8(uint8_t(in.freg1));
    e.u8(uint8_t(in.freg2));
    e.u8(uint8_t(in.mem.base));
    e.u8(uint8_t(in.mem.index));
    e.u8(in.mem.scale);
    e.u32(uint32_t(in.mem.disp));
    e.u64(uint64_t(in.imm));
    e.u32(in.target);
    e.u8(in.opSize);
}

void
decodeInst(Decoder &d, x86::Inst &in)
{
    in.mnem = static_cast<x86::Mnem>(d.u8());
    in.form = static_cast<x86::Form>(d.u8());
    in.cc = static_cast<x86::Cond>(d.u8());
    in.reg1 = static_cast<x86::Reg>(d.u8());
    in.reg2 = static_cast<x86::Reg>(d.u8());
    in.freg1 = static_cast<x86::FReg>(d.u8());
    in.freg2 = static_cast<x86::FReg>(d.u8());
    in.mem.base = static_cast<x86::Reg>(d.u8());
    in.mem.index = static_cast<x86::Reg>(d.u8());
    in.mem.scale = d.u8();
    in.mem.disp = int32_t(d.u32());
    in.imm = int64_t(d.u64());
    in.target = d.u32();
    in.opSize = d.u8();
}

uint32_t
floatBits(float v)
{
    uint32_t raw = 0;
    std::memcpy(&raw, &v, 4);
    return raw;
}

float
bitsFloat(uint32_t raw)
{
    float v = 0;
    std::memcpy(&v, &raw, 4);
    return v;
}

} // anonymous namespace

size_t
encodeRecord(const TraceRecord &rec, uint8_t *out)
{
    Encoder e{out};
    e.u32(rec.pc);
    e.u32(rec.nextPc);
    e.u8(rec.length);
    e.u8(rec.taken);
    e.u8(rec.wroteFlags);
    e.u8(rec.flagsAfter);

    // Instruction encoding ("raw instruction data").
    encodeInst(e, rec.inst);

    // Side effects.
    e.u8(rec.numRegWrites);
    for (unsigned i = 0; i < TraceRecord::MAX_REG_WRITES; ++i) {
        e.u8(uint8_t(rec.regWrites[i].reg));
        e.u32(rec.regWrites[i].value);
    }
    e.u8(rec.numMemOps);
    for (unsigned i = 0; i < TraceRecord::MAX_MEM_OPS; ++i) {
        e.u8(rec.memOps[i].isStore);
        e.u32(rec.memOps[i].addr);
        e.u8(rec.memOps[i].size);
        e.u32(rec.memOps[i].data);
    }
    e.u8(rec.numFregWrites);
    e.u8(uint8_t(rec.fregWrite.reg));
    e.u32(floatBits(rec.fregWrite.value));
    return e.len;
}

TraceRecord
decodeRecord(const uint8_t *buf)
{
    Decoder d{buf};
    TraceRecord rec;
    rec.pc = d.u32();
    rec.nextPc = d.u32();
    rec.length = d.u8();
    rec.taken = d.u8();
    rec.wroteFlags = d.u8();
    rec.flagsAfter = d.u8();

    decodeInst(d, rec.inst);

    rec.numRegWrites = d.u8();
    for (unsigned i = 0; i < TraceRecord::MAX_REG_WRITES; ++i) {
        rec.regWrites[i].reg = static_cast<x86::Reg>(d.u8());
        rec.regWrites[i].value = d.u32();
    }
    rec.numMemOps = d.u8();
    for (unsigned i = 0; i < TraceRecord::MAX_MEM_OPS; ++i) {
        rec.memOps[i].isStore = d.u8();
        rec.memOps[i].addr = d.u32();
        rec.memOps[i].size = d.u8();
        rec.memOps[i].data = d.u32();
    }
    rec.numFregWrites = d.u8();
    rec.fregWrite.reg = static_cast<x86::FReg>(d.u8());
    rec.fregWrite.value = bitsFloat(d.u32());
    return rec;
}

size_t
recordWireBytes()
{
    static const size_t size = [] {
        uint8_t buf[MAX_RECORD_BYTES];
        return encodeRecord(TraceRecord{}, buf);
    }();
    return size;
}

namespace {

/** Fold one word into the digest: a multiply by an odd constant and a
 *  xor-shift that carries the high half back down, each a bijection of
 *  the state. */
inline uint64_t
digestWord(uint64_t h, uint64_t w)
{
    h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
    return h ^ (h >> 32);
}

} // anonymous namespace

uint64_t
streamDigest(TraceSource &src, uint64_t max_records)
{
    // The zero bytes past the canonical encoding pad its last word.
    uint8_t buf[MAX_RECORD_BYTES + 8] = {};
    uint64_t h = 14695981039346656037ULL;
    uint64_t n = 0;
    while (!src.done() && (max_records == 0 || n < max_records)) {
        const size_t len = encodeRecord(*src.peek(), buf);
        for (size_t i = 0; i < len; i += 8)
            h = digestWord(h, load64(buf + i));
        src.advance();
        ++n;
    }
    // Final avalanche (MurmurHash3's fmix64) after the record count.
    h = digestWord(h, n);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    return h ^ (h >> 33);
}

// --------------------------------------------------------------------
// Instruction dictionary
// --------------------------------------------------------------------

void
InstDictionary::rehash(size_t capacity)
{
    slots_.assign(capacity, 0);
    mask_ = capacity - 1;
    shift_ = 32 - unsigned(std::countr_zero(capacity));
    for (size_t i = 0; i < entries_.size(); ++i) {
        size_t s = slotOf(entries_[i].pc);
        while (slots_[s])
            s = (s + 1) & mask_;
        slots_[s] = uint32_t(i + 1);
    }
}

const DictEntry &
InstDictionary::insert(const DictEntry &entry)
{
    if (const DictEntry *known = find(entry.pc))
        return *known;
    entries_.push_back(entry);
    // Keep the table at most half full, so probes stay short.
    if (2 * entries_.size() > slots_.size()) {
        rehash(std::max<size_t>(64, 2 * slots_.size()));
    } else {
        size_t s = slotOf(entry.pc);
        while (slots_[s])
            s = (s + 1) & mask_;
        slots_[s] = uint32_t(entries_.size());
    }
    return entries_.back();
}

void
InstDictionary::store(uint8_t *out) const
{
    std::vector<const DictEntry *> sorted;
    sorted.reserve(entries_.size());
    for (const DictEntry &e : entries_)
        sorted.push_back(&e);
    std::sort(sorted.begin(), sorted.end(),
              [](const DictEntry *a, const DictEntry *b) {
                  return a->pc < b->pc;
              });
    Encoder e{out};
    for (const DictEntry *entry : sorted) {
        e.u32(entry->pc);
        e.u8(entry->length);
        encodeInst(e, entry->inst);
    }
}

bool
InstDictionary::load(const uint8_t *buf, size_t count, size_t *bad_entry)
{
    entries_.clear();
    entries_.reserve(count);
    Decoder d{buf};
    for (size_t i = 0; i < count; ++i) {
        DictEntry entry;
        entry.pc = d.u32();
        entry.length = d.u8();
        decodeInst(d, entry.inst);
        if (i > 0 && entry.pc <= entries_.back().pc) {
            *bad_entry = i;
            entries_.clear();
            slots_.clear();
            return false;
        }
        entries_.push_back(entry);
    }
    rehash(std::max<size_t>(64, std::bit_ceil(2 * count)));
    return true;
}

// --------------------------------------------------------------------
// Chunk coder
// --------------------------------------------------------------------

namespace {

/**
 * True when every slot past the record's counts holds its default, so
 * the used slots alone rebuild the record.
 */
bool
unusedSlotsAtDefaults(const TraceRecord &rec)
{
    if (rec.numRegWrites > TraceRecord::MAX_REG_WRITES ||
        rec.numMemOps > TraceRecord::MAX_MEM_OPS || rec.numFregWrites > 1)
        return false;
    const x86::RegWrite rw{};
    for (unsigned i = rec.numRegWrites; i < TraceRecord::MAX_REG_WRITES;
         ++i) {
        if (rec.regWrites[i].reg != rw.reg ||
            rec.regWrites[i].value != rw.value)
            return false;
    }
    const x86::MemOp mo{};
    for (unsigned i = rec.numMemOps; i < TraceRecord::MAX_MEM_OPS; ++i) {
        const x86::MemOp &m = rec.memOps[i];
        if (m.isStore != mo.isStore || m.addr != mo.addr ||
            m.size != mo.size || m.data != mo.data)
            return false;
    }
    const x86::FRegWrite fw{};
    return rec.numFregWrites ||
           (rec.fregWrite.reg == fw.reg &&
            floatBits(rec.fregWrite.value) == floatBits(fw.value));
}

} // anonymous namespace

void
ChunkEncoder::reset()
{
    nextPc_ = 0;
    flags_ = 0;
}

size_t
ChunkEncoder::encode(const TraceRecord &rec, uint8_t *out)
{
    using namespace chunkcode;
    Encoder e{out};
    if (!unusedSlotsAtDefaults(rec)) {
        e.u8(F_ESCAPE);
        e.len += encodeRecord(rec, out + e.len);
        nextPc_ = rec.nextPc;
        flags_ = rec.flagsAfter;
        return e.len;
    }

    // The first instruction coded at a pc becomes its dictionary entry;
    // only a different one at the same pc is coded inline.
    const DictEntry &known =
        dict_.insert(DictEntry{rec.pc, rec.length, rec.inst});
    const bool in_dict =
        known.length == rec.length && known.inst == rec.inst;
    uint8_t flags = 0;
    if (rec.pc != nextPc_)
        flags |= F_PC;
    if (!in_dict)
        flags |= F_INST;
    if (rec.nextPc != rec.pc + rec.length)
        flags |= F_NEXT;
    if (rec.flagsAfter != flags_)
        flags |= F_FLAGS;
    if (rec.taken)
        flags |= F_TAKEN;
    if (rec.wroteFlags)
        flags |= F_WROTE_FLAGS;
    e.u8(flags);
    e.u8(uint8_t(rec.numRegWrites | rec.numMemOps << 2 |
                 rec.numFregWrites << 4));
    if (flags & F_PC)
        e.u32(rec.pc);
    if (!in_dict) {
        e.u8(rec.length);
        encodeInst(e, rec.inst);
    }
    if (flags & F_NEXT)
        e.u32(rec.nextPc);
    if (flags & F_FLAGS)
        e.u8(rec.flagsAfter);
    for (unsigned i = 0; i < rec.numRegWrites; ++i) {
        e.u8(uint8_t(rec.regWrites[i].reg));
        e.u32(rec.regWrites[i].value);
    }
    for (unsigned i = 0; i < rec.numMemOps; ++i) {
        e.u8(rec.memOps[i].isStore);
        e.u32(rec.memOps[i].addr);
        e.u8(rec.memOps[i].size);
        e.u32(rec.memOps[i].data);
    }
    if (rec.numFregWrites) {
        e.u8(uint8_t(rec.fregWrite.reg));
        e.u32(floatBits(rec.fregWrite.value));
    }
    nextPc_ = rec.nextPc;
    flags_ = rec.flagsAfter;
    return e.len;
}

size_t
ChunkDecoder::decodeOne(const uint8_t *p, TraceRecord &rec)
{
    using namespace chunkcode;
    // Every optional field is loaded unconditionally and then selected,
    // so the per-record flag mix costs conditional moves, not branch
    // mispredictions: no load reaches past p + 80, well inside the
    // MAX_CODED_RECORD_BYTES the caller guarantees.
    const uint8_t flags = p[0];
    if (flags & ~(F_PC | F_INST | F_NEXT | F_FLAGS | F_TAKEN |
                  F_WROTE_FLAGS)) {
        if (flags != F_ESCAPE)
            return 0;
        rec = decodeRecord(p + 1);
        nextPc_ = rec.nextPc;
        flags_ = rec.flagsAfter;
        return 1 + recordWireBytes();
    }
    const uint8_t counts = p[1];
    const unsigned n_regs = counts & 3;
    const unsigned n_mems = (counts >> 2) & 3;
    const unsigned n_fregs = counts >> 4;
    if ((n_regs > TraceRecord::MAX_REG_WRITES) |
        (n_mems > TraceRecord::MAX_MEM_OPS) | (n_fregs > 1))
        return 0;
    size_t pos = 2;

    const bool has_pc = flags & F_PC;
    const uint32_t pc = has_pc ? load32(p + pos) : nextPc_;
    pos += has_pc ? 4 : 0;
    rec.pc = pc;
    if (flags & F_INST) {
        rec.length = p[pos];
        Decoder d{p + pos + 1};
        decodeInst(d, rec.inst);
        pos += 1 + d.pos;
    } else if (const DictEntry *known = dict_.find(pc)) {
        rec.length = known->length;
        rec.inst = known->inst;
    } else {
        return 0;   // a pc the container's dictionary does not hold
    }

    const bool has_next = flags & F_NEXT;
    const uint32_t next = load32(p + pos);
    rec.nextPc = has_next ? next : pc + rec.length;
    pos += has_next ? 4 : 0;
    const bool has_flags = flags & F_FLAGS;
    rec.flagsAfter = has_flags ? p[pos] : flags_;
    pos += has_flags;
    rec.taken = flags & F_TAKEN;
    rec.wroteFlags = flags & F_WROTE_FLAGS;

    rec.numRegWrites = uint8_t(n_regs);
    for (unsigned k = 0; k < TraceRecord::MAX_REG_WRITES; ++k) {
        const bool used = k < n_regs;
        const uint8_t reg = p[pos];
        const uint32_t value = load32(p + pos + 1);
        rec.regWrites[k].reg =
            used ? static_cast<x86::Reg>(reg) : x86::Reg::NONE;
        rec.regWrites[k].value = used ? value : 0;
        pos += used ? 5 : 0;
    }
    rec.numMemOps = uint8_t(n_mems);
    const x86::MemOp mo{};
    for (unsigned k = 0; k < TraceRecord::MAX_MEM_OPS; ++k) {
        const bool used = k < n_mems;
        const uint8_t is_store = p[pos];
        const uint32_t addr = load32(p + pos + 1);
        const uint8_t size = p[pos + 5];
        const uint32_t data = load32(p + pos + 6);
        x86::MemOp &m = rec.memOps[k];
        m.isStore = used ? is_store != 0 : mo.isStore;
        m.addr = used ? addr : mo.addr;
        m.size = used ? size : mo.size;
        m.data = used ? data : mo.data;
        pos += used ? 10 : 0;
    }
    rec.numFregWrites = uint8_t(n_fregs);
    const uint8_t freg = p[pos];
    const uint32_t fbits = load32(p + pos + 1);
    rec.fregWrite.reg =
        n_fregs ? static_cast<x86::FReg>(freg) : x86::FReg::NONE;
    rec.fregWrite.value = bitsFloat(n_fregs ? fbits : 0);
    pos += n_fregs ? 5 : 0;

    nextPc_ = rec.nextPc;
    flags_ = rec.flagsAfter;
    return pos;
}

bool
ChunkDecoder::decodeChunk(const uint8_t *buf, size_t len, TraceRecord *out,
                          size_t count)
{
    nextPc_ = 0;
    flags_ = 0;
    size_t pos = 0;
    for (size_t i = 0; i < count; ++i) {
        const size_t avail = len - pos;
        size_t n;
        if (avail >= MAX_CODED_RECORD_BYTES) {
            n = decodeOne(buf + pos, out[i]);
        } else {
            // Near the end: decode from a zero-padded copy, so a
            // record cut short reads padding, not past the buffer.
            uint8_t tail[MAX_CODED_RECORD_BYTES] = {};
            std::memcpy(tail, buf + pos, avail);
            n = decodeOne(tail, out[i]);
            if (n > avail)
                return false;
        }
        if (n == 0)
            return false;
        pos += n;
    }
    return pos == len;
}

} // namespace replay::trace::wire
