/**
 * @file
 * On-disk wire codec for the trace container (trace/tracev3.hh).
 *
 * The container encodes TraceRecords field by field, little-endian via
 * fixed-width integers, so files are portable across compilers (no
 * struct memcpy).  This header is the single home of that codec plus
 * the two checksum primitives the container builds on:
 *
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

/** Upper bound on one encoded record (compile-time buffer sizing). */
constexpr size_t MAX_RECORD_BYTES = 128;

/**
 * Encode @p rec into @p out (>= MAX_RECORD_BYTES); returns the encoded
 * length.  Every record encodes to the same length — see
 * recordWireBytes().
 */
size_t encodeRecord(const TraceRecord &rec, uint8_t *out);

/** Decode one record from @p buf (recordWireBytes() bytes). */
TraceRecord decodeRecord(const uint8_t *buf);

/** Fixed encoded payload size of one record. */
size_t recordWireBytes();

/**
 * FNV-1a64 over the canonical record encoding — the container-
 * independent identity of a record stream.  A recorded container
 * (either codec, any chunk size) and the live executor digest
 * identically, which is what lets the corpus manifest pin artifacts.
 */
uint64_t streamDigest(TraceSource &src, uint64_t max_records = 0);

} // namespace replay::trace::wire

#endif // REPLAY_TRACE_CHUNK_HH
