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
 *     ChunkDecoder     is coded against the records before it in the
 *                      same chunk, so repeated instructions and
 *                      fall-through pcs cost a few bits.
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

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

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

/**
 * The chunk payload coding.  A record is coded as
 *
 *   flags u8, counts u8,
 *   [pc u32]              unless pc is the previous record's nextPc
 *   [length u8, Inst]     on a miss in the pc-indexed instruction table
 *   [nextPc u32]          unless nextPc == pc + length
 *   [flagsAfter u8]       when it differs from the previous record's
 *   regWrites[n]  {reg u8, value u32}
 *   memOps[n]     {isStore u8, addr u32, size u8, data u32}
 *   [fregWrite    {reg u8, value bits u32}]
 *
 * where counts packs numRegWrites | numMemOps << 2 | numFregWrites << 4.
 * A record whose unused slots are not at their defaults (or whose
 * counts exceed the slots) cannot be rebuilt from its used slots, so it
 * is stored as F_ESCAPE followed by its canonical encoding verbatim: the
 * coding is lossless for every record.
 *
 * All state (previous nextPc and flags, the table) resets at each
 * chunk, so every chunk decodes on its own.  The instruction table is
 * direct-mapped by slotOf(pc); a hit names the instruction most
 * recently coded at that pc in the same chunk.
 */
namespace chunkcode {

inline constexpr uint8_t F_PC = 0x01;       ///< pc follows
inline constexpr uint8_t F_INST = 0x02;     ///< table miss: inst follows
inline constexpr uint8_t F_NEXT = 0x04;     ///< nextPc follows
inline constexpr uint8_t F_FLAGS = 0x08;    ///< flagsAfter follows
inline constexpr uint8_t F_TAKEN = 0x10;
inline constexpr uint8_t F_WROTE_FLAGS = 0x20;
inline constexpr uint8_t F_ESCAPE = 0x80;   ///< canonical form follows

inline constexpr unsigned TABLE_BITS = 10;
inline constexpr size_t TABLE_SIZE = size_t(1) << TABLE_BITS;

/** Instruction-table slot of @p pc. */
inline unsigned
slotOf(uint32_t pc)
{
    return (pc * 0x9e3779b1u) >> (32 - TABLE_BITS);
}

} // namespace chunkcode

/** Codes the records of one chunk at a time (the writer's side). */
class ChunkEncoder
{
  public:
    /** Forget every earlier record: the next one starts a chunk. */
    void reset();

    /** Code @p rec into @p out (>= MAX_CODED_RECORD_BYTES bytes);
     *  returns the coded length. */
    size_t encode(const TraceRecord &rec, uint8_t *out);

  private:
    struct Entry
    {
        uint32_t pc = 0;
        uint32_t stamp = 0;     ///< valid while == stamp_
        uint8_t length = 0;
        x86::Inst inst;
    };

    std::array<Entry, chunkcode::TABLE_SIZE> table_{};
    uint32_t stamp_ = 1;
    uint32_t nextPc_ = 0;
    uint8_t flags_ = 0;
};

/** Decodes one chunk payload at a time (the reader's side). */
class ChunkDecoder
{
  public:
    /**
     * Decode exactly @p count records from the @p len bytes at @p buf
     * into @p out.  False when the bytes are not exactly @p count
     * well-formed records: a record cut short, a table hit with no
     * earlier miss in the chunk, a count above its slots, a reserved
     * bit set, or bytes left over.
     */
    bool decodeChunk(const uint8_t *buf, size_t len, TraceRecord *out,
                     size_t count);

  private:
    /** Where the instruction at a pc was last decoded: out[index]. */
    struct Entry
    {
        uint32_t pc = 0;
        uint32_t stamp = 0;     ///< valid while == stamp_
        uint32_t index = 0;
    };

    /** Decode record @p i from @p p (MAX_CODED_RECORD_BYTES readable);
     *  returns its length, or 0 if malformed. */
    size_t decodeOne(const uint8_t *p, TraceRecord *out, size_t i);

    std::array<Entry, chunkcode::TABLE_SIZE> table_{};
    uint32_t stamp_ = 0;
    uint32_t nextPc_ = 0;
    uint8_t flags_ = 0;
};

/**
 * FNV-1a64 over the canonical record encoding — the container-
 * independent identity of a record stream.  A recorded container
 * (either codec, any chunk size) and the live executor digest
 * identically, which is what lets the corpus manifest pin artifacts.
 */
uint64_t streamDigest(TraceSource &src, uint64_t max_records = 0);

} // namespace replay::trace::wire

#endif // REPLAY_TRACE_CHUNK_HH
