/**
 * @file
 * On-disk wire codec for the trace container (trace/tracev3.hh).
 *
 * The container encodes TraceRecords field by field, little-endian via
 * fixed-width integers, so files are portable across compilers (no
 * struct memcpy).  This header is the single home of that codec plus
 * the two checksum primitives the container builds on:
 *
 *   - encodeRecord() — the fixed-size *canonical* encoding: every
 *                      field, used slots or not.  It is the identity of
 *                      a record stream (streamDigest) and the escape
 *                      form of the chunk coder, never a chunk payload
 *                      on its own.
 *   - ChunkEncoder / — the compact chunk payload coding: each record
 *     ChunkDecoder     names its instruction by pc in the container's
 *                      InstDictionary and is coded against the record
 *                      before it in the same chunk, so repeated
 *                      instructions and fall-through pcs cost a few
 *                      bits.
 *   - fnv1a32()      — byte-wise FNV-1a.  The header and index
 *                      checksums; byte-wise because the checksummed
 *                      spans are small and the value is part of the
 *                      frozen format.
 *   - chunkChecksum()— word-at-a-time FNV-1a64 folded to 32 bits.  The
 *                      per-chunk guard: processing 8 bytes per
 *                      multiply makes integrity checking ~8x cheaper
 *                      per byte than a byte-wise FNV.
 *
 * The load/store helpers compile to single unaligned moves on
 * little-endian hosts and fall back to byte composition elsewhere, so
 * the decode hot loop is not serialized on byte-at-a-time shifts.
 */

#ifndef REPLAY_TRACE_CHUNK_HH
#define REPLAY_TRACE_CHUNK_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "trace/record.hh"

namespace replay::trace::wire {

inline constexpr bool kLittleEndian =
    std::endian::native == std::endian::little;

inline uint16_t
load16(const uint8_t *p)
{
    if constexpr (kLittleEndian) {
        uint16_t v;
        std::memcpy(&v, p, 2);
        return v;
    } else {
        return uint16_t(p[0] | (uint16_t(p[1]) << 8));
    }
}

inline uint32_t
load32(const uint8_t *p)
{
    if constexpr (kLittleEndian) {
        uint32_t v;
        std::memcpy(&v, p, 4);
        return v;
    } else {
        return uint32_t(load16(p)) | (uint32_t(load16(p + 2)) << 16);
    }
}

inline uint64_t
load64(const uint8_t *p)
{
    if constexpr (kLittleEndian) {
        uint64_t v;
        std::memcpy(&v, p, 8);
        return v;
    } else {
        return uint64_t(load32(p)) | (uint64_t(load32(p + 4)) << 32);
    }
}

inline void
store16(uint8_t *p, uint16_t v)
{
    if constexpr (kLittleEndian) {
        std::memcpy(p, &v, 2);
    } else {
        p[0] = uint8_t(v);
        p[1] = uint8_t(v >> 8);
    }
}

inline void
store32(uint8_t *p, uint32_t v)
{
    if constexpr (kLittleEndian) {
        std::memcpy(p, &v, 4);
    } else {
        store16(p, uint16_t(v));
        store16(p + 2, uint16_t(v >> 16));
    }
}

inline void
store64(uint8_t *p, uint64_t v)
{
    if constexpr (kLittleEndian) {
        std::memcpy(p, &v, 8);
    } else {
        store32(p, uint32_t(v));
        store32(p + 4, uint32_t(v >> 32));
    }
}

/** Little-endian field writer over a caller-provided buffer. */
struct Encoder
{
    uint8_t *buf;
    size_t len = 0;

    void
    u8(uint8_t v)
    {
        buf[len++] = v;
    }
    void
    u16(uint16_t v)
    {
        store16(buf + len, v);
        len += 2;
    }
    void
    u32(uint32_t v)
    {
        store32(buf + len, v);
        len += 4;
    }
    void
    u64(uint64_t v)
    {
        store64(buf + len, v);
        len += 8;
    }
};

/** Little-endian field reader. */
struct Decoder
{
    const uint8_t *buf;
    size_t pos = 0;

    uint8_t
    u8()
    {
        return buf[pos++];
    }
    uint16_t
    u16()
    {
        const uint16_t v = load16(buf + pos);
        pos += 2;
        return v;
    }
    uint32_t
    u32()
    {
        const uint32_t v = load32(buf + pos);
        pos += 4;
        return v;
    }
    uint64_t
    u64()
    {
        const uint64_t v = load64(buf + pos);
        pos += 8;
        return v;
    }
};

/** Byte-wise FNV-1a32 — the frozen header/index checksum. */
inline uint32_t
fnv1a32(const uint8_t *buf, size_t len)
{
    uint32_t h = 0x811c9dc5u;
    for (size_t i = 0; i < len; ++i) {
        h ^= buf[i];
        h *= 0x01000193u;
    }
    return h;
}

/**
 * Word-at-a-time FNV-1a64 folded to 32 bits — the v3 per-chunk guard.
 * Mixes 8 input bytes per multiply (alignment-safe via load64), with a
 * byte-wise tail; a final avalanche step spreads the length in.
 */
inline uint32_t
chunkChecksum(const uint8_t *buf, size_t len)
{
    uint64_t h = 14695981039346656037ULL;
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        h ^= load64(buf + i);
        h *= 1099511628211ULL;
    }
    uint64_t tail = 0;
    for (unsigned shift = 0; i < len; ++i, shift += 8)
        tail |= uint64_t(buf[i]) << shift;
    h ^= tail;
    h *= 1099511628211ULL;
    h ^= uint64_t(len);
    h *= 1099511628211ULL;
    return uint32_t(h) ^ uint32_t(h >> 32);
}

/** Upper bound on one canonical record (compile-time buffer sizing). */
constexpr size_t MAX_RECORD_BYTES = 128;

/**
 * Encode @p rec into @p out (>= MAX_RECORD_BYTES) in the canonical
 * form; returns the encoded length.  Every record encodes to the same
 * length — see recordWireBytes().
 */
size_t encodeRecord(const TraceRecord &rec, uint8_t *out);

/** Decode one canonical record from @p buf (recordWireBytes() bytes). */
TraceRecord decodeRecord(const uint8_t *buf);

/** Fixed canonical size of one record (the header's recordBytes). */
size_t recordWireBytes();

/** Upper bound on one record's chunk coding: the escape byte plus the
 *  canonical form. */
constexpr size_t MAX_CODED_RECORD_BYTES = 1 + MAX_RECORD_BYTES;

/** One static instruction: what a container stores once per pc. */
struct DictEntry
{
    uint32_t pc = 0;
    uint8_t length = 0;
    x86::Inst inst;
};

/** Bytes of one stored dictionary entry: pc u32, length u8, Inst. */
constexpr size_t DICT_ENTRY_BYTES = 4 + 1 + 27;

/**
 * The container's instruction dictionary: the first (length, Inst)
 * recorded at each pc, looked up by exact pc through an open-addressed
 * table (one lookup per coded record; a std::unordered_map in its place
 * made container ingest 7-15% slower).  It is stored once, next to the
 * chunk index, as entries in strictly ascending pc order.
 */
class InstDictionary
{
  public:
    /** The entry at @p pc, or nullptr. */
    const DictEntry *
    find(uint32_t pc) const
    {
        if (slots_.empty())
            return nullptr;
        for (size_t s = slotOf(pc);; s = (s + 1) & mask_) {
            const uint32_t at = slots_[s];
            if (at == 0)
                return nullptr;
            if (entries_[at - 1].pc == pc)
                return &entries_[at - 1];
        }
    }

    /** Add @p entry unless its pc already has one; returns the entry
     *  now held at that pc. */
    const DictEntry &insert(const DictEntry &entry);

    size_t size() const { return entries_.size(); }

    /** Stored size: size() * DICT_ENTRY_BYTES. */
    size_t storedBytes() const { return size() * DICT_ENTRY_BYTES; }

    /** Write the stored form (storedBytes() bytes) to @p out. */
    void store(uint8_t *out) const;

    /**
     * Rebuild from @p count stored entries at @p buf.  False when the
     * pcs are not strictly ascending (a duplicate or out-of-order
     * entry); @p bad_entry then names the first offending entry.
     */
    bool load(const uint8_t *buf, size_t count, size_t *bad_entry);

  private:
    size_t
    slotOf(uint32_t pc) const
    {
        return size_t((pc * 0x9e3779b1u) >> shift_);
    }

    void rehash(size_t capacity);

    std::vector<DictEntry> entries_;
    std::vector<uint32_t> slots_;   ///< entry index + 1; 0 = empty
    size_t mask_ = 0;       ///< slots_.size() - 1
    unsigned shift_ = 0;    ///< 32 - log2(slots_.size())
};

/**
 * The chunk payload coding.  A record is coded as
 *
 *   flags u8, counts u8,
 *   [pc u32]              unless pc is the previous record's nextPc
 *   [length u8, Inst]     only when they differ from the dictionary's
 *                         entry at pc
 *   [nextPc u32]          unless nextPc == pc + length
 *   [flagsAfter u8]       when it differs from the previous record's
 *   regWrites[n]  {reg u8, value u32}
 *   memOps[n]     {isStore u8, addr u32, size u8, data u32}
 *   [fregWrite    {reg u8, value bits u32}]
 *
 * where counts packs numRegWrites | numMemOps << 2 | numFregWrites << 4.
 * A record without F_INST takes its length and instruction from the
 * container's InstDictionary.  A record whose unused slots are not at
 * their defaults (or whose counts exceed the slots) cannot be rebuilt
 * from its used slots, so it is stored as F_ESCAPE followed by its
 * canonical encoding verbatim: the coding is lossless for every record.
 *
 * The previous nextPc and flags reset at each chunk, so once the
 * dictionary is loaded every chunk decodes on its own.
 */
namespace chunkcode {

inline constexpr uint8_t F_PC = 0x01;       ///< pc follows
inline constexpr uint8_t F_INST = 0x02;     ///< inline length + inst
inline constexpr uint8_t F_NEXT = 0x04;     ///< nextPc follows
inline constexpr uint8_t F_FLAGS = 0x08;    ///< flagsAfter follows
inline constexpr uint8_t F_TAKEN = 0x10;
inline constexpr uint8_t F_WROTE_FLAGS = 0x20;
inline constexpr uint8_t F_ESCAPE = 0x80;   ///< canonical form follows

} // namespace chunkcode

/**
 * Codes records chunk by chunk (the writer's side) and builds the
 * container's dictionary as it goes: the first instruction coded at a
 * pc becomes that pc's entry.
 */
class ChunkEncoder
{
  public:
    /** The next record starts a chunk; the dictionary is kept. */
    void reset();

    /** Code @p rec into @p out (>= MAX_CODED_RECORD_BYTES bytes);
     *  returns the coded length. */
    size_t encode(const TraceRecord &rec, uint8_t *out);

    const InstDictionary &dictionary() const { return dict_; }

  private:
    InstDictionary dict_;
    uint32_t nextPc_ = 0;
    uint8_t flags_ = 0;
};

/** Decodes one chunk payload at a time against a loaded dictionary
 *  (the reader's side). */
class ChunkDecoder
{
  public:
    explicit ChunkDecoder(const InstDictionary &dict) : dict_(dict) {}

    /**
     * Decode exactly @p count records from the @p len bytes at @p buf
     * into @p out.  False when the bytes are not exactly @p count
     * well-formed records: a record cut short, a pc the dictionary does
     * not hold, a count above its slots, a reserved bit set, or bytes
     * left over.
     */
    bool decodeChunk(const uint8_t *buf, size_t len, TraceRecord *out,
                     size_t count);

  private:
    /** Decode one record from @p p (MAX_CODED_RECORD_BYTES readable)
     *  into @p rec; returns its length, or 0 if malformed. */
    size_t decodeOne(const uint8_t *p, TraceRecord &rec);

    const InstDictionary &dict_;
    uint32_t nextPc_ = 0;
    uint8_t flags_ = 0;
};

/**
 * Hash of the canonical record encoding — the container-independent
 * identity of a record stream.  A recorded container (either codec, any
 * chunk size) and the live executor digest identically, which is what
 * lets the corpus manifest pin artifacts.  Each record's canonical
 * bytes are taken 8 at a time (the last word zero-padded); every word
 * is folded in by a multiply and a xor-shift, both bijective, so a
 * change to any one bit of any field changes the digest.
 */
uint64_t streamDigest(TraceSource &src, uint64_t max_records = 0);

} // namespace replay::trace::wire

#endif // REPLAY_TRACE_CHUNK_HH
