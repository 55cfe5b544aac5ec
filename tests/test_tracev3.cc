/**
 * @file
 * Trace container test battery.
 *
 * Three pillars, matching the hardening contract in DESIGN.md:
 *
 *  - Corruption matrix: for every structural field of the container
 *    (header, chunk headers, payload, index, dictionary, footer) a paired
 *    accept/reject check — the pristine file reads fully, the file
 *    with that one field damaged yields a *typed* TraceError plus the
 *    valid prefix, and restoring the field restores the full stream.
 *    Never a crash, never silently wrong data.
 *
 *  - Round-trip properties: a recorded container delivers the record
 *    stream the live synthesizer produces for all 14 workloads, across
 *    codecs (raw/zlib), read paths (mmap/buffered), and lookahead peeks
 *    spanning many chunks.
 *
 *  - Robustness: missing, garbage, cut-off and chunk-damaged files
 *    surface a typed TraceError instead of killing the process, read
 *    faults retry or end the stream with READ_ERROR, and the simulator
 *    completes on whatever valid prefix a damaged container delivers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fault/faultinjector.hh"
#include "trace/chunk.hh"
#include "sim/simulator.hh"
#include "trace/corpus.hh"
#include "trace/tracer.hh"
#include "trace/tracev3.hh"
#include "trace/workload.hh"
#include "util/rng.hh"
#include "testdir.hh"

using namespace replay;
using namespace replay::trace;
using fault::FaultInjector;
using Kind = TraceError::Kind;
using testutil::testPath;

namespace {

std::vector<uint8_t>
slurp(const std::string &path)
{
    std::vector<uint8_t> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return bytes;
    uint8_t buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

void
spit(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    if (!bytes.empty()) {
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
    }
    std::fclose(f);
}

/** Rewrite one header field and re-seal the header checksum, so the
 *  *field* check trips instead of the checksum guard in front of it. */
void
patchHeaderField(std::vector<uint8_t> &bytes, size_t off, uint64_t value,
                 unsigned width)
{
    if (width == 8)
        wire::store64(bytes.data() + off, value);
    else
        wire::store32(bytes.data() + off, uint32_t(value));
    wire::store32(bytes.data() + v3::HDR_OFF_CHECKSUM,
                  wire::fnv1a32(bytes.data(), v3::HDR_OFF_CHECKSUM));
}

struct ReadResult
{
    uint64_t records = 0;
    TraceError err;
    uint64_t ioRetries = 0;
    std::vector<uint32_t> pcs;
};

ReadResult
readV3(const std::string &path, V3SourceOptions opts = {})
{
    ReadResult r;
    TraceV3Source src(path, opts);
    while (!src.done()) {
        r.pcs.push_back(src.peek()->pc);
        src.advance();
    }
    r.records = src.consumed();
    r.err = src.error();
    r.ioRetries = src.ioRetries();
    return r;
}

/** Every field of every record must agree between the two sources. */
void
expectIdenticalStreams(TraceSource &got_src, TraceSource &want_src)
{
    uint64_t n = 0;
    while (!want_src.done()) {
        ASSERT_FALSE(got_src.done()) << "stream ended early at " << n;
        const TraceRecord *got = got_src.peek();
        const TraceRecord *want = want_src.peek();
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->pc, want->pc) << "record " << n;
        EXPECT_EQ(got->nextPc, want->nextPc) << "record " << n;
        EXPECT_EQ(got->length, want->length) << "record " << n;
        EXPECT_EQ(got->taken, want->taken) << "record " << n;
        EXPECT_EQ(got->flagsAfter, want->flagsAfter) << "record " << n;
        EXPECT_TRUE(got->inst == want->inst) << "record " << n;
        ASSERT_EQ(got->numRegWrites, want->numRegWrites) << "record " << n;
        for (unsigned i = 0; i < want->numRegWrites; ++i) {
            EXPECT_EQ(got->regWrites[i].reg, want->regWrites[i].reg);
            EXPECT_EQ(got->regWrites[i].value, want->regWrites[i].value);
        }
        ASSERT_EQ(got->numMemOps, want->numMemOps) << "record " << n;
        for (unsigned i = 0; i < want->numMemOps; ++i) {
            EXPECT_EQ(got->memOps[i].isStore, want->memOps[i].isStore);
            EXPECT_EQ(got->memOps[i].addr, want->memOps[i].addr);
            EXPECT_EQ(got->memOps[i].size, want->memOps[i].size);
            EXPECT_EQ(got->memOps[i].data, want->memOps[i].data);
        }
        got_src.advance();
        want_src.advance();
        ++n;
    }
    EXPECT_TRUE(got_src.done()) << "stream has extra records past " << n;
}

} // namespace

// ---------------------------------------------------------------------
// Corruption matrix
// ---------------------------------------------------------------------

namespace {

constexpr uint64_t kNoOffsetCheck = ~uint64_t(0);
constexpr int64_t kNoChunkCheck = -2;

class TraceV3Corruption : public ::testing::Test
{
  protected:
    static constexpr uint64_t RECORDS = 2600;   // 1024 + 1024 + 552

    static void
    SetUpTestSuite()
    {
        path_ = new std::string(testPath("matrix.rpl3"));
        const Workload &w = findWorkload("gzip");
        V3Options opts;
        opts.chunkRecords = 1024;
        opts.codec = V3Codec::RAW;  // deterministic chunk geometry
        TraceV3Writer::dumpProgram(w.buildProgram(0), RECORDS, *path_,
                                   opts);
        pristine_ = new std::vector<uint8_t>(slurp(*path_));
        info_ = new V3Info(inspectV3(*path_));
        ASSERT_TRUE(info_->ok()) << info_->error.describe();
        ASSERT_EQ(info_->chunks.size(), 3u);
        ref_ = new ReadResult(readV3(*path_));
        ASSERT_TRUE(ref_->err.ok()) << ref_->err.describe();
        ASSERT_EQ(ref_->records, RECORDS);
    }

    static void
    TearDownTestSuite()
    {
        delete path_;
        delete pristine_;
        delete info_;
        delete ref_;
    }

    void
    SetUp() override
    {
        spit(*path_, *pristine_);
    }

    /** The damaged file must yield a typed error and the exact valid
     *  prefix. */
    void
    expectReject(Kind kind, uint64_t prefix,
                 uint64_t offset = kNoOffsetCheck,
                 int64_t chunk = kNoChunkCheck)
    {
        const ReadResult r = readV3(*path_);
        EXPECT_EQ(r.err.kind, kind)
            << "got " << traceErrorKindName(r.err.kind) << ": "
            << r.err.describe();
        EXPECT_EQ(r.records, prefix);
        ASSERT_LE(r.pcs.size(), ref_->pcs.size());
        EXPECT_TRUE(std::equal(r.pcs.begin(), r.pcs.end(),
                               ref_->pcs.begin()))
            << "delivered prefix diverges from the pristine stream";
        EXPECT_EQ(r.err.path, *path_);
        if (offset != kNoOffsetCheck) {
            EXPECT_EQ(r.err.byteOffset, offset);
        }
        if (chunk != kNoChunkCheck) {
            EXPECT_EQ(r.err.chunkIndex, chunk);
        }
    }

    /** The restored file must deliver the full pristine stream. */
    void
    expectPristine()
    {
        const ReadResult r = readV3(*path_);
        EXPECT_TRUE(r.err.ok()) << r.err.describe();
        EXPECT_EQ(r.records, RECORDS);
        EXPECT_EQ(r.pcs, ref_->pcs);
    }

    static std::string *path_;
    static std::vector<uint8_t> *pristine_;
    static V3Info *info_;
    static ReadResult *ref_;
};

std::string *TraceV3Corruption::path_ = nullptr;
std::vector<uint8_t> *TraceV3Corruption::pristine_ = nullptr;
V3Info *TraceV3Corruption::info_ = nullptr;
ReadResult *TraceV3Corruption::ref_ = nullptr;

} // namespace

TEST_F(TraceV3Corruption, HeaderFieldFlipsAreTypedAndPaired)
{
    struct Row
    {
        const char *field;
        uint64_t offset;
        Kind kind;
        uint64_t errOffset;
    };
    // Fields behind the header checksum surface as BAD_CHECKSUM on a
    // raw bit-flip (the guard fires before the field is interpreted);
    // the fields in front of it get their own kinds.
    const Row rows[] = {
        {"magic", v3::HDR_OFF_MAGIC, Kind::BAD_MAGIC, v3::HDR_OFF_MAGIC},
        {"version", v3::HDR_OFF_VERSION, Kind::BAD_VERSION,
         v3::HDR_OFF_VERSION},
        {"recordBytes", v3::HDR_OFF_RECORD_BYTES, Kind::BAD_CHECKSUM,
         v3::HDR_OFF_CHECKSUM},
        {"recordCount", v3::HDR_OFF_RECORD_COUNT, Kind::BAD_CHECKSUM,
         v3::HDR_OFF_CHECKSUM},
        {"codec", v3::HDR_OFF_CODEC, Kind::BAD_CHECKSUM,
         v3::HDR_OFF_CHECKSUM},
        {"chunkRecords", v3::HDR_OFF_CHUNK_RECORDS, Kind::BAD_CHECKSUM,
         v3::HDR_OFF_CHECKSUM},
        {"indexOffset", v3::HDR_OFF_INDEX_OFFSET, Kind::BAD_CHECKSUM,
         v3::HDR_OFF_CHECKSUM},
        {"headerChecksum", v3::HDR_OFF_CHECKSUM, Kind::BAD_CHECKSUM,
         v3::HDR_OFF_CHECKSUM},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.field);
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, row.offset));
        expectReject(row.kind, 0, row.errOffset);
        // flipByteAt is self-inverse: the un-flip restores the stream.
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, row.offset));
        expectPristine();
    }
}

TEST_F(TraceV3Corruption, ResealedHeaderFieldsHitTheirTypedChecks)
{
    struct Row
    {
        const char *field;
        size_t offset;
        uint64_t value;
        unsigned width;
        Kind kind;
        uint64_t errOffset;
    };
    const Row rows[] = {
        // Wrong record size with a *valid* checksum: version skew.
        {"recordBytes", v3::HDR_OFF_RECORD_BYTES, 76, 4,
         Kind::BAD_RECORD_SIZE, v3::HDR_OFF_RECORD_BYTES},
        // Containers of earlier formats (fixed-size canonical payload;
        // a per-chunk instruction table and zlib-wrapped chunks): the
        // version alone refuses them.
        {"version3", v3::HDR_OFF_VERSION, 3, 4, Kind::BAD_VERSION,
         v3::HDR_OFF_VERSION},
        {"version4", v3::HDR_OFF_VERSION, 4, 4, Kind::BAD_VERSION,
         v3::HDR_OFF_VERSION},
        // Unknown codec id.
        {"codec", v3::HDR_OFF_CODEC, 7, 4, Kind::BAD_CODEC,
         v3::HDR_OFF_CODEC},
        // Stale index: header record count no longer matches what the
        // index tiles (e.g. the trace was re-recorded longer but the
        // old index/footer survived).
        {"recordCount+", v3::HDR_OFF_RECORD_COUNT, RECORDS + 512, 8,
         Kind::BAD_INDEX, info_->indexOffset},
        {"recordCount-", v3::HDR_OFF_RECORD_COUNT, RECORDS - 100, 8,
         Kind::BAD_INDEX, info_->indexOffset},
        // Header and footer disagreeing on where the index lives.
        {"indexOffset", v3::HDR_OFF_INDEX_OFFSET,
         info_->indexOffset + v3::INDEX_ENTRY_BYTES, 8, Kind::BAD_INDEX,
         pristine_->size() - v3::FOOTER_BYTES},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.field);
        std::vector<uint8_t> bytes = *pristine_;
        patchHeaderField(bytes, row.offset, row.value, row.width);
        spit(*path_, bytes);
        expectReject(row.kind, 0, row.errOffset);
        spit(*path_, *pristine_);
        expectPristine();
    }
}

TEST_F(TraceV3Corruption, ChunkHeaderFieldFlipsRejectWithValidPrefix)
{
    // Damage chunk 1 of 3: the reader must deliver chunk 0's 1024
    // records, then stop with a typed, chunk-scoped error.
    const uint64_t c1 = info_->chunks[1].offset;
    struct Row
    {
        const char *field;
        uint64_t offset;
        Kind kind;
    };
    const Row rows[] = {
        {"chunkMagic", c1 + v3::CHK_OFF_MAGIC, Kind::BAD_CHUNK},
        {"payloadBytes", c1 + v3::CHK_OFF_PAYLOAD_BYTES, Kind::BAD_CHUNK},
        {"rawBytes", c1 + v3::CHK_OFF_RAW_BYTES, Kind::BAD_CHUNK},
        {"records", c1 + v3::CHK_OFF_RECORDS, Kind::BAD_CHUNK},
        {"firstRecord", c1 + v3::CHK_OFF_FIRST_RECORD, Kind::BAD_CHUNK},
        {"chunkChecksum", c1 + v3::CHK_OFF_CHECKSUM, Kind::BAD_CHUNK},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.field);
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, row.offset));
        expectReject(row.kind, 1024, c1, 1);
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, row.offset));
        expectPristine();
    }
}

TEST_F(TraceV3Corruption, PayloadBitFlipFailsTheChunkChecksum)
{
    const uint64_t c1 = info_->chunks[1].offset;
    const uint64_t payload = c1 + v3::CHUNK_HEADER_BYTES;
    for (const uint64_t delta : {uint64_t(0), uint64_t(4097),
                                 uint64_t(info_->chunks[1].payloadBytes)
                                     - 1}) {
        SCOPED_TRACE(delta);
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, payload + delta));
        expectReject(Kind::BAD_CHECKSUM, 1024, payload, 1);
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, payload + delta));
        expectPristine();
    }

    // A single-*bit* flip must be caught too (weakest corruption).
    ASSERT_TRUE(FaultInjector::flipByteAt(*path_, payload + 100, 0x01));
    expectReject(Kind::BAD_CHECKSUM, 1024, payload, 1);
    ASSERT_TRUE(FaultInjector::flipByteAt(*path_, payload + 100, 0x01));
    expectPristine();
}

TEST_F(TraceV3Corruption, FirstChunkDamageDeliversZeroRecords)
{
    const uint64_t c0 = info_->chunks[0].offset;
    ASSERT_TRUE(FaultInjector::flipByteAt(*path_, c0 + v3::CHK_OFF_MAGIC));
    expectReject(Kind::BAD_CHUNK, 0, c0, 0);
    ASSERT_TRUE(FaultInjector::flipByteAt(*path_, c0 + v3::CHK_OFF_MAGIC));
    expectPristine();
}

TEST_F(TraceV3Corruption, IndexAndFooterFlipsAreTypedAndPaired)
{
    const uint64_t index_off = info_->indexOffset;
    const uint64_t footer_off = pristine_->size() - v3::FOOTER_BYTES;
    struct Row
    {
        const char *field;
        uint64_t offset;
        Kind kind;
        uint64_t errOffset;
    };
    const Row rows[] = {
        // Any index byte is covered by the footer's index checksum.
        {"indexEntry0", index_off + 3, Kind::BAD_INDEX, index_off},
        {"indexEntry2", index_off + 2 * v3::INDEX_ENTRY_BYTES + 20,
         Kind::BAD_INDEX, index_off},
        // Footer fields.  The dictionary entry count sizes the span
        // between the index and the footer, so it no longer tiles.
        {"footerIndexOffset", footer_off + v3::FTR_OFF_INDEX_OFFSET,
         Kind::BAD_INDEX, footer_off},
        {"footerChunkCount", footer_off + v3::FTR_OFF_CHUNK_COUNT,
         Kind::BAD_INDEX, footer_off},
        {"footerIndexChecksum", footer_off + v3::FTR_OFF_CHECKSUM,
         Kind::BAD_INDEX, index_off},
        {"footerDictEntries", footer_off + v3::FTR_OFF_DICT_ENTRIES,
         Kind::BAD_INDEX, footer_off},
        {"footerMagic", footer_off + v3::FTR_OFF_MAGIC, Kind::TRUNCATED,
         pristine_->size() - 4},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.field);
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, row.offset));
        expectReject(row.kind, 0, row.errOffset);
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, row.offset));
        expectPristine();
    }
}

TEST_F(TraceV3Corruption, DictionaryFlipsAndCutsAreTypedAtOpen)
{
    // The dictionary is loaded at open, before any chunk: damage to it
    // rejects the whole container, so not one record is delivered.
    const uint64_t index_off = info_->indexOffset;
    const uint64_t dict_off = info_->dictOffset();
    const uint64_t footer_off = pristine_->size() - v3::FOOTER_BYTES;
    ASSERT_GT(info_->dictEntries, 2u);
    ASSERT_EQ(dict_off + info_->dictBytes, footer_off);

    // Every dictionary byte is under the footer's checksum.
    for (const uint64_t at : {dict_off, dict_off + 4,
                              dict_off + wire::DICT_ENTRY_BYTES + 17,
                              footer_off - 1}) {
        SCOPED_TRACE(at - dict_off);
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, at));
        expectReject(Kind::BAD_INDEX, 0, index_off);
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, at));
        expectPristine();
    }

    // A file cut inside the dictionary has lost its footer.
    {
        std::vector<uint8_t> bytes = *pristine_;
        bytes.resize(size_t(dict_off + wire::DICT_ENTRY_BYTES / 2));
        spit(*path_, bytes);
        expectReject(Kind::TRUNCATED, 0);
    }
    // One entry spliced out under an intact footer: the span between
    // the index and the footer is shorter than the count declares.
    {
        std::vector<uint8_t> bytes = *pristine_;
        bytes.erase(bytes.begin() + long(dict_off),
                    bytes.begin() + long(dict_off + wire::DICT_ENTRY_BYTES));
        spit(*path_, bytes);
        expectReject(Kind::BAD_INDEX, 0,
                     bytes.size() - v3::FOOTER_BYTES);
    }
    spit(*path_, *pristine_);
    expectPristine();
}

TEST_F(TraceV3Corruption, DuplicateOrOutOfOrderDictionaryEntryIsTyped)
{
    // Entries must be in strictly ascending pc order.  Each damaged
    // dictionary is resealed, so the order check itself must fire.
    const uint64_t index_off = info_->indexOffset;
    const uint64_t dict_off = info_->dictOffset();
    const uint64_t footer_off = pristine_->size() - v3::FOOTER_BYTES;
    const auto reseal = [&](std::vector<uint8_t> &bytes) {
        wire::store32(bytes.data() + footer_off + v3::FTR_OFF_CHECKSUM,
                      wire::fnv1a32(bytes.data() + index_off,
                                    size_t(footer_off - index_off)));
    };
    const size_t E = wire::DICT_ENTRY_BYTES;
    const auto entry = [&](size_t i) {
        return pristine_->begin() + long(dict_off + i * E);
    };
    ASSERT_LT(wire::load32(&*entry(0)), wire::load32(&*entry(1)));

    struct Row
    {
        const char *what;
        size_t badEntry;
        std::function<void(std::vector<uint8_t> &)> damage;
    };
    const Row rows[] = {
        {"entries 0 and 1 swapped", 1,
         [&](std::vector<uint8_t> &b) {
             std::swap_ranges(b.begin() + long(dict_off),
                              b.begin() + long(dict_off + E),
                              b.begin() + long(dict_off + E));
         }},
        {"entry 1 duplicates entry 0", 1,
         [&](std::vector<uint8_t> &b) {
             std::copy(entry(0), entry(1), b.begin() + long(dict_off + E));
         }},
        {"last entry's pc lowered to entry 0's", info_->dictEntries - 1,
         [&](std::vector<uint8_t> &b) {
             std::copy(entry(0), entry(0) + 4,
                       b.begin() +
                           long(dict_off +
                                (info_->dictEntries - 1) * E));
         }},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.what);
        std::vector<uint8_t> bytes = *pristine_;
        row.damage(bytes);
        reseal(bytes);
        spit(*path_, bytes);
        expectReject(Kind::BAD_INDEX, 0, dict_off + row.badEntry * E);
        const V3Info info = inspectV3(*path_);
        EXPECT_EQ(info.error.kind, Kind::BAD_INDEX);
        EXPECT_NE(info.error.message.find("dictionary entry " +
                                          std::to_string(row.badEntry)),
                  std::string::npos)
            << info.error.describe();
    }
    spit(*path_, *pristine_);
    expectPristine();
}

TEST_F(TraceV3Corruption, DuplicatedChunkIsCaughtByTheIndexCrossCheck)
{
    // One 1024-record block written twice: the coder restarts at each
    // chunk and every instruction is coded by dictionary reference, so
    // both payloads are byte-identical and splicing chunk 0
    // over chunk 1 changes nothing but chunk 1's header firstRecord,
    // which then disagrees with the FNV-sealed index entry.
    const std::string path = testPath("duplicated.rpl3");
    const x86::Program prog = findWorkload("gzip").buildProgram(0);
    ExecutorTraceSource live(prog, 1024);
    std::vector<TraceRecord> block;
    for (; !live.done(); live.advance())
        block.push_back(*live.peek());
    V3Options opts;
    opts.chunkRecords = 1024;
    opts.codec = V3Codec::RAW;
    {
        TraceV3Writer writer(path, opts);
        for (int copy = 0; copy < 2; ++copy)
            for (const TraceRecord &rec : block)
                writer.write(rec);
        ASSERT_TRUE(writer.close().ok());
    }
    const std::vector<uint8_t> pristine = slurp(path);
    const V3Info info = inspectV3(path);
    ASSERT_TRUE(info.ok()) << info.error.describe();
    ASSERT_EQ(info.chunks.size(), 2u);
    const V3Info::Chunk &c0 = info.chunks[0];
    const V3Info::Chunk &c1 = info.chunks[1];
    ASSERT_EQ(c0.payloadBytes, c1.payloadBytes);
    const size_t span = v3::CHUNK_HEADER_BYTES + c0.payloadBytes;
    // The two chunk spans differ in firstRecord alone.
    const auto same = [&](size_t from, size_t to) {
        return std::equal(pristine.begin() + c0.offset + from,
                          pristine.begin() + c0.offset + to,
                          pristine.begin() + c1.offset + from);
    };
    ASSERT_TRUE(same(0, v3::CHK_OFF_FIRST_RECORD));
    ASSERT_TRUE(same(v3::CHK_OFF_CHECKSUM, span));

    std::vector<uint8_t> bytes = pristine;
    std::memcpy(bytes.data() + c1.offset, bytes.data() + c0.offset, span);
    spit(path, bytes);
    const ReadResult r = readV3(path);
    EXPECT_EQ(r.err.kind, Kind::BAD_CHUNK) << r.err.describe();
    EXPECT_EQ(r.records, 1024u);
    EXPECT_EQ(r.err.byteOffset, c1.offset);
    EXPECT_EQ(r.err.chunkIndex, 1);
    EXPECT_NE(r.err.message.find("duplicated"), std::string::npos)
        << r.err.describe();
    for (size_t i = 0; i < r.pcs.size(); ++i)
        ASSERT_EQ(r.pcs[i], block[i].pc) << "record " << i;

    spit(path, pristine);
    const ReadResult clean = readV3(path);
    EXPECT_TRUE(clean.err.ok()) << clean.err.describe();
    EXPECT_EQ(clean.records, 2048u);
}

TEST_F(TraceV3Corruption, TruncationIsTypedAtEveryCutPoint)
{
    struct Row
    {
        const char *site;
        uint64_t keep;
        Kind kind;
    };
    const Row rows[] = {
        {"insideHeader", 16, Kind::SHORT_HEADER},
        {"beforeFooterMinimum", v3::HEADER_BYTES + 10, Kind::TRUNCATED},
        {"midChunk1", info_->chunks[1].offset + 1000, Kind::TRUNCATED},
        {"atIndexStart", info_->indexOffset, Kind::TRUNCATED},
        {"insideFooter", pristine_->size() - 3, Kind::TRUNCATED},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.site);
        std::vector<uint8_t> bytes = *pristine_;
        bytes.resize(size_t(row.keep));
        spit(*path_, bytes);
        // A file cut off mid-write has no trustworthy index, so the
        // whole container is rejected at open: prefix 0.
        expectReject(row.kind, 0);
        // A cut-off file is honest end-of-file, not a transient fault:
        // neither read path may spend retries on it.
        for (const bool prefer_mmap : {true, false}) {
            SCOPED_TRACE(prefer_mmap ? "mmap" : "buffered");
            V3SourceOptions so;
            so.preferMmap = prefer_mmap;
            const ReadResult r = readV3(*path_, so);
            EXPECT_EQ(r.err.kind, row.kind);
            EXPECT_EQ(r.records, 0u);
            EXPECT_EQ(r.ioRetries, 0u);
        }
        spit(*path_, *pristine_);
        expectPristine();
    }
}

TEST_F(TraceV3Corruption, BufferedPathRejectsIdentically)
{
    // The buffered FILE* fallback must enforce the same matrix; spot
    // check one case per layer against the mmap results above.
    V3SourceOptions buffered;
    buffered.preferMmap = false;

    const uint64_t c1 = info_->chunks[1].offset;
    ASSERT_TRUE(FaultInjector::flipByteAt(*path_, c1 + v3::CHK_OFF_MAGIC));
    {
        TraceV3Source src(*path_, buffered);
        EXPECT_FALSE(src.usedMmap());
        uint64_t n = 0;
        while (!src.done()) {
            src.advance();
            ++n;
        }
        EXPECT_EQ(n, 1024u);
        EXPECT_EQ(src.error().kind, Kind::BAD_CHUNK);
        EXPECT_EQ(src.error().chunkIndex, 1);
    }
    ASSERT_TRUE(FaultInjector::flipByteAt(*path_, c1 + v3::CHK_OFF_MAGIC));

    ASSERT_TRUE(FaultInjector::flipByteAt(*path_, v3::HDR_OFF_MAGIC));
    {
        TraceV3Source src(*path_, buffered);
        EXPECT_EQ(src.error().kind, Kind::BAD_MAGIC);
        EXPECT_TRUE(src.done());
    }
    ASSERT_TRUE(FaultInjector::flipByteAt(*path_, v3::HDR_OFF_MAGIC));
    expectPristine();
}

// ---------------------------------------------------------------------
// Randomized mutation fuzz smoke: 500 mutated containers, zero crashes,
// zero escapes (an accepted full read must digest pristine).
// ---------------------------------------------------------------------

TEST(TraceV3Fuzz, RandomMutationsNeverCrashOrEscape)
{
    const Workload &w = findWorkload("gzip");
    const x86::Program prog = w.buildProgram(0);
    const uint64_t N = 900;
    const std::string path = testPath("fuzz.rpl3");

    V3Options raw_opts;
    raw_opts.chunkRecords = 128;
    raw_opts.codec = V3Codec::RAW;
    TraceV3Writer::dumpProgram(prog, N, path, raw_opts);
    const std::vector<uint8_t> raw_bytes = slurp(path);

    uint64_t want_digest = 0;
    {
        TraceV3Source src(path);
        want_digest = wire::streamDigest(src);
        ASSERT_TRUE(src.ok());
        ASSERT_EQ(src.consumed(), N);
    }

    std::vector<uint8_t> zlib_bytes;
    if (v3ZlibAvailable()) {
        V3Options z = raw_opts;
        z.codec = V3Codec::ZLIB;
        TraceV3Writer::dumpProgram(prog, N, path, z);
        zlib_bytes = slurp(path);
        TraceV3Source src(path);
        EXPECT_EQ(wire::streamDigest(src), want_digest)
            << "zlib and raw codecs must digest identically";
    }

    Rng rng(20260809);
    unsigned rejects = 0, accepts = 0;
    for (unsigned iter = 0; iter < 500; ++iter) {
        const bool use_zlib = !zlib_bytes.empty() && iter % 3 == 0;
        const std::vector<uint8_t> &base =
            use_zlib ? zlib_bytes : raw_bytes;
        std::vector<uint8_t> bytes = base;
        if (rng.chance(0.2)) {
            bytes.resize(size_t(rng.below(bytes.size())));
        } else {
            const unsigned flips = 1 + unsigned(rng.below(4));
            for (unsigned f = 0; f < flips; ++f)
                bytes[size_t(rng.below(bytes.size()))] ^=
                    uint8_t(1u << rng.below(8));
        }
        spit(path, bytes);

        TraceV3Source src(path);
        const uint64_t digest = wire::streamDigest(src);
        if (src.ok()) {
            // Accepted: the stream must be byte-identical to pristine
            // — anything else is a silent-wrong-data escape.
            EXPECT_EQ(src.consumed(), N) << "iteration " << iter;
            EXPECT_EQ(digest, want_digest) << "iteration " << iter;
            ++accepts;
        } else {
            EXPECT_NE(src.error().kind, Kind::NONE);
            EXPECT_FALSE(src.error().path.empty()) << "iteration " << iter;
            EXPECT_LE(src.consumed(), N);
            ++rejects;
        }
    }
    // Every byte is checksummed or cross-checked, so accepts are rare.
    EXPECT_GE(rejects, 490u) << accepts << " accepts";
}

// ---------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------

TEST(TraceV3RoundTrip, WriterReaderPreserveEveryField)
{
    const Workload &w = findWorkload("eon");   // exercises FP records
    const x86::Program prog = w.buildProgram(0);
    const std::string path = testPath("eon.rpl3");
    TraceV3Writer::dumpProgram(prog, 3000, path);

    TraceV3Source src(path);
    ASSERT_TRUE(src.ok()) << src.error().describe();
    EXPECT_EQ(src.totalRecords(), 3000u);
    ExecutorTraceSource want(prog, 3000);
    expectIdenticalStreams(src, want);
    EXPECT_TRUE(src.ok());
}

TEST(TraceV3RoundTrip, RecordedIsIdenticalForAllFourteenWorkloads)
{
    const uint64_t N = 1200;
    for (const Workload &w : standardWorkloads()) {
        SCOPED_TRACE(w.name);
        const x86::Program prog = w.buildProgram(0);
        const std::string path = testPath(w.name + ".rpl3");
        TraceV3Writer::dumpProgram(prog, N, path);

        // The container-independent stream digest ties the recording
        // to live synthesis.
        ExecutorTraceSource live(prog, N);
        const uint64_t want = wire::streamDigest(live);

        TraceV3Source src(path);
        EXPECT_EQ(wire::streamDigest(src), want);
        ASSERT_TRUE(src.ok()) << src.error().describe();
        EXPECT_EQ(src.consumed(), N);
    }
}

TEST(TraceV3RoundTrip, ZlibAndRawCodecsDeliverTheSameStream)
{
    if (!v3ZlibAvailable())
        GTEST_SKIP() << "built without zlib";
    const Workload &w = findWorkload("vortex");
    const x86::Program prog = w.buildProgram(0);
    const std::string raw_path = testPath("codec_raw.rpl3");
    const std::string z_path = testPath("codec_zlib.rpl3");
    V3Options raw_opts;
    raw_opts.codec = V3Codec::RAW;
    V3Options z_opts;
    z_opts.codec = V3Codec::ZLIB;
    TraceV3Writer::dumpProgram(prog, 4000, raw_path, raw_opts);
    TraceV3Writer::dumpProgram(prog, 4000, z_path, z_opts);

    TraceV3Source a(raw_path), b(z_path);
    expectIdenticalStreams(b, a);
    EXPECT_TRUE(a.ok());
    EXPECT_TRUE(b.ok());

    // Compression must actually compress the synthetic traces' chunk
    // payloads (vortex: 11.6 coded bytes per record, 4.0 stored, 2.9x).
    // The dictionary is stored uncompressed by both, so the whole file
    // shrinks less (1.7x), but it must still shrink.
    const V3Info raw_info = inspectV3(raw_path);
    const V3Info z_info = inspectV3(z_path);
    EXPECT_EQ(z_info.dictEntries, raw_info.dictEntries);
    EXPECT_LT(z_info.payloadBytes(), raw_info.payloadBytes() * 3 / 8);
    EXPECT_LT(z_info.fileBytes, raw_info.fileBytes * 2 / 3);
}

TEST(TraceV3RoundTrip, MmapAndBufferedDeliverIdenticalStreams)
{
    const Workload &w = findWorkload("parser");
    const x86::Program prog = w.buildProgram(0);
    const std::string path = testPath("paths.rpl3");
    TraceV3Writer::dumpProgram(prog, 2500, path);

    V3SourceOptions mm;
    mm.preferMmap = true;
    V3SourceOptions buf;
    buf.preferMmap = false;
    TraceV3Source a(path, mm), b(path, buf);
    EXPECT_TRUE(a.usedMmap());
    EXPECT_FALSE(b.usedMmap());
    expectIdenticalStreams(b, a);
    EXPECT_TRUE(a.ok());
    EXPECT_TRUE(b.ok());
}

TEST(TraceV3RoundTrip, EmptyContainerRoundTrips)
{
    const std::string path = testPath("empty.rpl3");
    {
        TraceV3Writer writer(path);
        const TraceError err = writer.close();
        ASSERT_TRUE(err.ok()) << err.describe();
    }
    const V3Info info = inspectV3(path);
    EXPECT_TRUE(info.ok()) << info.error.describe();
    EXPECT_EQ(info.recordCount, 0u);
    EXPECT_TRUE(info.chunks.empty());

    TraceV3Source src(path);
    EXPECT_TRUE(src.ok()) << src.error().describe();
    EXPECT_TRUE(src.done());
    EXPECT_EQ(src.consumed(), 0u);
}

TEST(TraceV3RoundTrip, LimitRecordsCapsThePresentedStream)
{
    const Workload &w = findWorkload("bzip2");
    const x86::Program prog = w.buildProgram(0);
    const std::string path = testPath("limit.rpl3");
    TraceV3Writer::dumpProgram(prog, 3000, path);

    V3SourceOptions opts;
    opts.limitRecords = 700;
    TraceV3Source src(path, opts);
    EXPECT_EQ(src.totalRecords(), 700u);
    ExecutorTraceSource want(prog, 700);
    expectIdenticalStreams(src, want);
    EXPECT_TRUE(src.ok());
    EXPECT_EQ(src.consumed(), 700u);
}

TEST(TraceV3RoundTrip, DeepPeekAcrossChunksDeliversIdenticalStream)
{
    // Small chunks make the deepest lookahead peek (LOOKAHEAD - 1)
    // span at least eight decoded chunks, pinned across every chunk
    // boundary while advance() recycles the front of the window.  The
    // delivered stream must be exactly what a fresh executor produces,
    // on both read paths.
    constexpr uint32_t CHUNK = 64;
    static_assert(TraceSource::LOOKAHEAD / CHUNK >= 8);
    const Workload &w = findWorkload("crafty");
    const x86::Program prog = w.buildProgram(0);
    const uint64_t total = uint64_t(TraceSource::LOOKAHEAD) * 7 + 123;
    const std::string path = testPath("crafty_deep.rpl3");
    V3Options opts;
    opts.chunkRecords = CHUNK;
    TraceV3Writer::dumpProgram(prog, total, path, opts);

    for (const bool prefer_mmap : {true, false}) {
        SCOPED_TRACE(prefer_mmap ? "mmap" : "buffered");
        V3SourceOptions so;
        so.preferMmap = prefer_mmap;
        TraceV3Source src(path, so);
        ExecutorTraceSource ref(prog, total);
        uint64_t n = 0;
        while (!ref.done()) {
            ASSERT_FALSE(src.done()) << "file stream ended early at " << n;
            const TraceRecord *got = src.peek();
            const TraceRecord *want = ref.peek();
            ASSERT_NE(got, nullptr);
            EXPECT_EQ(got->pc, want->pc) << "record " << n;
            EXPECT_EQ(got->nextPc, want->nextPc) << "record " << n;
            EXPECT_EQ(got->numMemOps, want->numMemOps) << "record " << n;
            // Deep peek: must agree with what advance() later
            // delivers, although it decodes chunks far ahead.
            if ((n % (TraceSource::LOOKAHEAD / 2)) == 0) {
                const TraceRecord *far =
                    src.peek(TraceSource::LOOKAHEAD - 1);
                const TraceRecord *far_ref =
                    ref.peek(TraceSource::LOOKAHEAD - 1);
                ASSERT_EQ(far == nullptr, far_ref == nullptr);
                if (far) {
                    EXPECT_EQ(far->pc, far_ref->pc) << "deep peek at " << n;
                }
            }
            src.advance();
            ref.advance();
            ++n;
        }
        EXPECT_TRUE(src.done());
        EXPECT_EQ(n, total);
        EXPECT_TRUE(src.ok()) << src.error().describe();
    }
}

// ---------------------------------------------------------------------
// Chunk coder: lossless round trip over random records (escape path,
// inline instructions, any chunk size), and malformed payloads under
// valid checksums
// ---------------------------------------------------------------------

namespace {

/** The canonical encoding: equal bytes mean equal records, unused
 *  slots included. */
std::vector<uint8_t>
canonical(const TraceRecord &rec)
{
    uint8_t buf[wire::MAX_RECORD_BYTES];
    return std::vector<uint8_t>(buf, buf + wire::encodeRecord(rec, buf));
}

/** A static instruction of the random program. */
struct StaticInst
{
    uint32_t pc;
    uint8_t length;
    x86::Inst inst;
};

x86::Inst
randomInst(Rng &rng)
{
    x86::Inst in;
    in.mnem = static_cast<x86::Mnem>(
        rng.below(uint64_t(x86::Mnem::NUM_MNEMS)));
    in.form = static_cast<x86::Form>(rng.below(14));
    in.cc = static_cast<x86::Cond>(rng.below(256));
    in.reg1 = static_cast<x86::Reg>(rng.below(256));
    in.reg2 = static_cast<x86::Reg>(rng.below(256));
    in.freg1 = static_cast<x86::FReg>(rng.below(256));
    in.freg2 = static_cast<x86::FReg>(rng.below(256));
    in.mem.base = static_cast<x86::Reg>(rng.below(256));
    in.mem.index = static_cast<x86::Reg>(rng.below(256));
    in.mem.scale = uint8_t(rng.below(256));
    in.mem.disp = int32_t(rng.next());
    in.imm = int64_t(rng.next());
    in.target = uint32_t(rng.next());
    in.opSize = uint8_t(rng.below(256));
    return in;
}

/**
 * A random record stream over a small static program: mostly
 * fall-through pcs and repeated instructions (dictionary references),
 * plus pc 0 (the pc a chunk's first record is coded against), one pc
 * seen with two different instructions (the inline path), random side
 * effects, and about one record in twenty with a non-default unused
 * slot or a count beyond its slots (the escape path).
 */
std::vector<TraceRecord>
randomStream(uint64_t seed, size_t n, unsigned *escapes)
{
    Rng rng(seed);
    std::vector<StaticInst> prog;
    uint32_t pc = 0x1000;
    for (int i = 0; i < 40; ++i) {
        const uint8_t len = uint8_t(1 + rng.below(15));
        prog.push_back({pc, len, randomInst(rng)});
        pc += len;
    }
    prog.push_back({0, 3, randomInst(rng)});
    prog.push_back({0x400000, 5, randomInst(rng)});
    // One pc, two instructions.
    prog.push_back({prog[3].pc, prog[3].length, randomInst(rng)});

    std::vector<TraceRecord> out;
    *escapes = 0;
    uint32_t next = 0;
    uint8_t flags = 0;
    for (size_t i = 0; i < n; ++i) {
        const StaticInst *si = nullptr;
        if (rng.chance(0.7)) {
            for (const StaticInst &cand : prog)
                if (cand.pc == next && (!si || rng.chance(0.5)))
                    si = &cand;
        }
        if (!si)
            si = &prog[rng.below(prog.size())];
        TraceRecord r;
        r.pc = si->pc;
        r.length = si->length;
        r.inst = si->inst;
        r.nextPc = rng.chance(0.7) ? r.pc + r.length
                                   : prog[rng.below(prog.size())].pc;
        r.taken = rng.chance(0.3);
        r.wroteFlags = rng.chance(0.5);
        if (rng.chance(0.3))
            flags = uint8_t(rng.below(256));
        r.flagsAfter = flags;
        r.numRegWrites = uint8_t(rng.below(3));
        for (unsigned k = 0; k < r.numRegWrites; ++k)
            r.regWrites[k] = {static_cast<x86::Reg>(rng.below(8)),
                              uint32_t(rng.next())};
        r.numMemOps = uint8_t(rng.below(3));
        for (unsigned k = 0; k < r.numMemOps; ++k) {
            r.memOps[k].isStore = rng.chance(0.5);
            r.memOps[k].addr = uint32_t(rng.next());
            r.memOps[k].size = uint8_t(1u << rng.below(3));
            r.memOps[k].data = uint32_t(rng.next());
        }
        r.numFregWrites = uint8_t(rng.below(2));
        if (r.numFregWrites) {
            r.fregWrite.reg = static_cast<x86::FReg>(rng.below(8));
            r.fregWrite.value = float(rng.below(1000)) / 7.0f;
        }
        if (rng.chance(0.05)) {
            ++*escapes;
            switch (rng.below(4)) {
              case 0:
                r.numRegWrites = 1;
                r.regWrites[1].value = 7;       // stale unused slot
                break;
              case 1:
                r.numMemOps = 0;
                r.memOps[1].size = 8;
                break;
              case 2:
                r.numFregWrites = 0;
                r.fregWrite.value = -0.0f;      // default compares equal
                break;
              default:
                r.numMemOps = 5;                // count beyond the slots
                break;
            }
        }
        next = r.nextPc;
        out.push_back(r);
    }
    return out;
}

/** Code @p recs as one chunk payload; @p coder keeps the dictionary. */
std::vector<uint8_t>
codeChunk(wire::ChunkEncoder &coder, const std::vector<TraceRecord> &recs)
{
    coder.reset();
    std::vector<uint8_t> out(recs.size() * wire::MAX_CODED_RECORD_BYTES);
    size_t len = 0;
    for (const TraceRecord &r : recs)
        len += coder.encode(r, out.data() + len);
    out.resize(len);
    return out;
}

struct RawChunk
{
    uint32_t records;
    std::vector<uint8_t> payload;
    uint32_t rawBytes;
};

/**
 * Assemble a container from hand-made chunk payloads and @p dict, every
 * checksum sealed, so only the payload's own coding can be at fault.
 */
void
writeContainer(const std::string &path, const std::vector<RawChunk> &chunks,
               const wire::InstDictionary &dict,
               V3Codec codec = V3Codec::RAW)
{
    std::vector<uint8_t> file(v3::HEADER_BYTES);
    std::vector<uint8_t> index;
    uint64_t first = 0;
    for (const RawChunk &c : chunks) {
        const uint64_t offset = file.size();
        const uint32_t sum =
            wire::chunkChecksum(c.payload.data(), c.payload.size());
        uint8_t hdr[v3::CHUNK_HEADER_BYTES];
        wire::Encoder e{hdr};
        e.u32(v3::CHUNK_MAGIC);
        e.u32(uint32_t(c.payload.size()));
        e.u32(c.rawBytes);
        e.u32(c.records);
        e.u64(first);
        e.u32(sum);
        file.insert(file.end(), hdr, hdr + sizeof(hdr));
        file.insert(file.end(), c.payload.begin(), c.payload.end());

        uint8_t ent[v3::INDEX_ENTRY_BYTES];
        wire::Encoder ie{ent};
        ie.u64(offset);
        ie.u64(first);
        ie.u32(uint32_t(c.payload.size()));
        ie.u32(c.records);
        ie.u32(sum);
        index.insert(index.end(), ent, ent + sizeof(ent));
        first += c.records;
    }
    const uint64_t index_offset = file.size();
    const size_t index_bytes = index.size();
    index.resize(index_bytes + dict.storedBytes());
    dict.store(index.data() + index_bytes);
    file.insert(file.end(), index.begin(), index.end());
    uint8_t ftr[v3::FOOTER_BYTES];
    wire::Encoder fe{ftr};
    fe.u64(index_offset);
    fe.u32(uint32_t(chunks.size()));
    fe.u32(wire::fnv1a32(index.data(), index.size()));
    fe.u32(uint32_t(dict.size()));
    fe.u32(v3::FOOTER_MAGIC);
    file.insert(file.end(), ftr, ftr + sizeof(ftr));

    wire::Encoder he{file.data()};
    he.u32(v3::MAGIC);
    he.u32(v3::VERSION);
    he.u32(uint32_t(wire::recordWireBytes()));
    he.u64(first);
    he.u32(uint32_t(codec));
    he.u32(1024);
    he.u64(index_offset);
    he.u32(wire::fnv1a32(file.data(), v3::HDR_OFF_CHECKSUM));
    spit(path, file);
}

} // namespace

TEST(TraceV3ChunkCoder, EscapeAndHitCodingSizes)
{
    const x86::Program prog = findWorkload("gzip").buildProgram(0);
    ExecutorTraceSource live(prog, 1);
    TraceRecord rec = *live.peek();
    rec.numRegWrites = rec.numMemOps = rec.numFregWrites = 0;
    rec.regWrites[0] = rec.regWrites[1] = {};
    rec.memOps[0] = rec.memOps[1] = {};
    rec.fregWrite = {};
    rec.nextPc = rec.pc + rec.length;
    rec.flagsAfter = 0;
    ASSERT_NE(rec.pc, 0u);

    namespace C = wire::chunkcode;
    wire::ChunkEncoder coder;
    uint8_t buf[wire::MAX_CODED_RECORD_BYTES];
    // First sight: the instruction becomes the pc's dictionary entry,
    // so only flags, counts and the pc are coded.
    EXPECT_EQ(coder.encode(rec, buf), 2u + 4u);
    EXPECT_EQ(buf[0] & (C::F_PC | C::F_INST), C::F_PC);
    ASSERT_EQ(coder.dictionary().size(), 1u);
    ASSERT_NE(coder.dictionary().find(rec.pc), nullptr);
    EXPECT_TRUE(coder.dictionary().find(rec.pc)->inst == rec.inst);
    // A jump back to rec.pc, then rec again: its pc is the jump's
    // nextPc, so with no side effects it is flags + counts alone.
    TraceRecord jump = rec;
    jump.pc = rec.nextPc;
    jump.nextPc = rec.pc;
    coder.encode(jump, buf);
    EXPECT_EQ(coder.encode(rec, buf), 2u);
    EXPECT_EQ(buf[0] & ~(C::F_TAKEN | C::F_WROTE_FLAGS), 0);
    // The dictionary outlives the chunk: after a reset only the pc is
    // coded again, never the instruction.
    coder.reset();
    EXPECT_EQ(coder.encode(rec, buf), 2u + 4u);
    EXPECT_EQ(buf[0] & C::F_INST, 0);

    // A different instruction at a known pc is coded inline, and the
    // dictionary keeps the first one.
    TraceRecord other = rec;
    other.inst.imm ^= 0x55;
    other.nextPc = other.pc + other.length;
    EXPECT_EQ(coder.encode(other, buf), 2u + 4u + 1u + 27u);
    EXPECT_EQ(buf[0] & C::F_INST, C::F_INST);
    EXPECT_TRUE(coder.dictionary().find(rec.pc)->inst == rec.inst);
    EXPECT_EQ(coder.dictionary().size(), 2u);   // rec and jump

    // A stale unused slot cannot be rebuilt from the used ones: the
    // record escapes to its canonical form.
    TraceRecord stale = rec;
    stale.memOps[1].addr = 0x1234;
    EXPECT_EQ(coder.encode(stale, buf), 1 + wire::recordWireBytes());
    EXPECT_EQ(buf[0], C::F_ESCAPE);
    EXPECT_EQ(std::vector<uint8_t>(buf + 1,
                                   buf + 1 + wire::recordWireBytes()),
              canonical(stale));
}

TEST(TraceV3ChunkCoder, RandomRecordsRoundTripAtEveryChunkSize)
{
    const size_t N = 3000;
    unsigned escapes = 0;
    const std::vector<TraceRecord> want = randomStream(20261019, N, &escapes);
    ASSERT_GT(escapes, 50u);
    // Records whose instruction differs from the first one seen at
    // their pc take the inline path.
    std::map<uint32_t, x86::Inst> first;
    unsigned inline_insts = 0;
    for (const TraceRecord &r : want)
        inline_insts += !(first.try_emplace(r.pc, r.inst).first->second ==
                          r.inst);
    ASSERT_GT(inline_insts, 20u);

    std::vector<V3Codec> codecs = {V3Codec::RAW};
    if (v3ZlibAvailable())
        codecs.push_back(V3Codec::ZLIB);
    const std::string path = testPath("random.rpl3");
    for (const uint32_t chunk : {1u, 7u, 1024u}) {
        for (const V3Codec codec : codecs) {
            SCOPED_TRACE(std::to_string(chunk) + " records per chunk, " +
                         v3CodecName(codec));
            V3Options opts;
            opts.chunkRecords = chunk;
            opts.codec = codec;
            {
                TraceV3Writer writer(path, opts);
                for (const TraceRecord &r : want)
                    writer.write(r);
                const TraceError err = writer.close();
                ASSERT_TRUE(err.ok()) << err.describe();
            }
            TraceV3Source src(path);
            ASSERT_TRUE(src.ok()) << src.error().describe();
            for (size_t i = 0; i < N; ++i) {
                ASSERT_FALSE(src.done()) << "ended at " << i;
                ASSERT_EQ(canonical(*src.peek()), canonical(want[i]))
                    << "record " << i;
                src.advance();
            }
            EXPECT_TRUE(src.done());
            EXPECT_TRUE(src.ok()) << src.error().describe();
        }
    }
}

TEST(TraceV3ChunkCoder, MalformedPayloadsAreBadChunkWithTheValidPrefix)
{
    const x86::Program prog = findWorkload("gzip").buildProgram(0);
    ExecutorTraceSource live(prog, 40);
    std::vector<TraceRecord> recs;
    for (; !live.done(); live.advance())
        recs.push_back(*live.peek());
    const std::vector<TraceRecord> head(recs.begin(), recs.begin() + 16);
    const std::vector<TraceRecord> tail(recs.begin() + 16, recs.end());
    wire::ChunkEncoder coder;
    const std::vector<uint8_t> head_payload = codeChunk(coder, head);
    const RawChunk chunk0{16, head_payload, uint32_t(head_payload.size())};
    const std::vector<uint8_t> good = codeChunk(coder, tail);
    const wire::InstDictionary &dict = coder.dictionary();
    const std::string path = testPath("malformed.rpl3");

    // The assembler itself writes a container that reads in full.
    writeContainer(path, {chunk0, {uint32_t(tail.size()), good,
                                   uint32_t(good.size())}},
                   dict);
    const ReadResult whole = readV3(path);
    ASSERT_TRUE(whole.err.ok()) << whole.err.describe();
    ASSERT_EQ(whole.records, recs.size());

    namespace C = wire::chunkcode;
    std::vector<uint8_t> cut = good;
    cut.resize(cut.size() - 3);
    std::vector<uint8_t> trailing = good;
    trailing.push_back(0);
    const std::vector<uint8_t> one = codeChunk(coder, {tail[0]});
    ASSERT_EQ(one[0] & (C::F_PC | C::F_INST), C::F_PC);
    std::vector<uint8_t> regs3 = one;
    regs3[1] = uint8_t((regs3[1] & ~3u) | 3u);
    std::vector<uint8_t> mems3 = one;
    mems3[1] = uint8_t(mems3[1] | 3u << 2);
    // tail[0] recoded at a pc the dictionary does not hold.
    uint32_t absent = 0xdead0000;
    while (dict.find(absent))
        ++absent;
    std::vector<uint8_t> absent_pc = one;
    wire::store32(absent_pc.data() + 2, absent);
    const std::vector<uint8_t> orphan = {0, 0};    // pc 0, no dictionary
    ASSERT_EQ(dict.find(0), nullptr);
    std::vector<uint8_t> reserved = one;
    reserved[0] |= 0x40;
    std::vector<uint8_t> escape_mixed = one;
    escape_mixed[0] |= C::F_ESCAPE;

    struct Row
    {
        const char *what;
        RawChunk chunk;
    };
    const Row rows[] = {
        {"record cut mid-field",
         {uint32_t(tail.size()), cut, uint32_t(cut.size())}},
        {"trailing bytes",
         {uint32_t(tail.size()), trailing, uint32_t(trailing.size())}},
        {"register count above 2", {1, regs3, uint32_t(regs3.size())}},
        {"memory count above 2", {1, mems3, uint32_t(mems3.size())}},
        {"pc absent from the dictionary",
         {1, absent_pc, uint32_t(absent_pc.size())}},
        {"chunk-start pc 0 absent from the dictionary",
         {1, orphan, uint32_t(orphan.size())}},
        {"reserved flag bit", {1, reserved, uint32_t(reserved.size())}},
        {"escape mixed with other flags",
         {1, escape_mixed, uint32_t(escape_mixed.size())}},
        {"raw payloadBytes != rawBytes",
         {uint32_t(tail.size()), good, uint32_t(good.size() + 1)}},
        {"raw payloadBytes != rawBytes (short)",
         {uint32_t(tail.size()), good, uint32_t(good.size() - 1)}},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.what);
        writeContainer(path, {chunk0, row.chunk}, dict);
        for (const bool prefer_mmap : {true, false}) {
            SCOPED_TRACE(prefer_mmap ? "mmap" : "buffered");
            V3SourceOptions so;
            so.preferMmap = prefer_mmap;
            const ReadResult r = readV3(path, so);
            EXPECT_EQ(r.err.kind, Kind::BAD_CHUNK) << r.err.describe();
            EXPECT_EQ(r.err.chunkIndex, 1);
            EXPECT_EQ(r.records, 16u);
            ASSERT_LE(r.pcs.size(), head.size());
            for (size_t i = 0; i < r.pcs.size(); ++i)
                EXPECT_EQ(r.pcs[i], head[i].pc) << "record " << i;
        }
    }
}

TEST(TraceV3ChunkCoder, DeflateStreamsMustEndExactlyAtRawBytes)
{
    // A ZLIB chunk is a raw deflate stream with no wrapper of its own:
    // it must inflate to exactly rawBytes and consume every stored
    // byte.  Each damaged stream is sealed by its chunk checksum, so
    // only the inflate check can catch it.
    if (!v3ZlibAvailable())
        GTEST_SKIP() << "built without zlib";
    const x86::Program prog = findWorkload("gzip").buildProgram(0);
    const std::string path = testPath("deflate.rpl3");
    V3Options opts;
    opts.chunkRecords = 16;
    opts.codec = V3Codec::ZLIB;
    TraceV3Writer::dumpProgram(prog, 32, path, opts);
    const V3Info info = inspectV3(path);
    ASSERT_TRUE(info.ok()) << info.error.describe();
    ASSERT_EQ(info.chunks.size(), 2u);
    const std::vector<uint8_t> file = slurp(path);
    const auto payload = [&](size_t i) {
        const auto at =
            file.begin() + long(info.chunks[i].offset +
                                v3::CHUNK_HEADER_BYTES);
        return std::vector<uint8_t>(at, at + info.chunks[i].payloadBytes);
    };
    const RawChunk chunk0{16, payload(0), info.chunks[0].rawBytes};
    const std::vector<uint8_t> stream = payload(1);
    const uint32_t raw = info.chunks[1].rawBytes;

    // The dictionary the writer stored, reloaded from the file.
    wire::InstDictionary dict;
    size_t bad = 0;
    ASSERT_TRUE(dict.load(file.data() + info.dictOffset(),
                          info.dictEntries, &bad));
    writeContainer(path, {chunk0, {16, stream, raw}}, dict, V3Codec::ZLIB);
    const ReadResult whole = readV3(path);
    ASSERT_TRUE(whole.err.ok()) << whole.err.describe();
    ASSERT_EQ(whole.records, 32u);

    std::vector<uint8_t> trailing = stream;
    trailing.push_back(0);
    std::vector<uint8_t> cut = stream;
    cut.resize(cut.size() - 2);
    std::vector<uint8_t> garbage = stream;
    for (uint8_t &b : garbage)
        b = uint8_t(b * 37 + 11);
    struct Row
    {
        const char *what;
        RawChunk chunk;
    };
    const Row rows[] = {
        {"rawBytes one more than the stream", {16, stream, raw + 1}},
        {"rawBytes one less than the stream", {16, stream, raw - 1}},
        {"bytes after the end of the stream", {16, trailing, raw}},
        {"stream cut short", {16, cut, raw}},
        {"not a deflate stream", {16, garbage, raw}},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.what);
        writeContainer(path, {chunk0, row.chunk}, dict, V3Codec::ZLIB);
        for (const bool prefer_mmap : {true, false}) {
            SCOPED_TRACE(prefer_mmap ? "mmap" : "buffered");
            V3SourceOptions so;
            so.preferMmap = prefer_mmap;
            const ReadResult r = readV3(path, so);
            EXPECT_EQ(r.err.kind, Kind::BAD_CHUNK) << r.err.describe();
            EXPECT_EQ(r.err.chunkIndex, 1);
            EXPECT_EQ(r.records, 16u);
        }
    }
}

TEST(TraceV3Digest, AnySingleBitFlipChangesTheDigest)
{
    // Flip each bit of one record's canonical encoding (every field,
    // used slots or not) and digest the record between two untouched
    // ones.  Flips no record can hold (the upper bits of the bool
    // bytes) are skipped.
    const x86::Program prog = findWorkload("eon").buildProgram(0);
    std::vector<TraceRecord> recs;
    ExecutorTraceSource live(prog, 3);
    for (; !live.done(); live.advance())
        recs.push_back(*live.peek());
    const auto digest_of = [](std::vector<TraceRecord> v) {
        VectorTraceSource src(std::move(v));
        return wire::streamDigest(src);
    };
    const uint64_t base = digest_of(recs);
    const std::vector<uint8_t> bytes = canonical(recs[1]);
    size_t flips = 0;
    for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        std::vector<uint8_t> flipped = bytes;
        flipped[bit / 8] ^= uint8_t(1u << (bit % 8));
        std::vector<TraceRecord> v = recs;
        v[1] = wire::decodeRecord(flipped.data());
        if (canonical(v[1]) != flipped)
            continue;
        ++flips;
        EXPECT_NE(digest_of(v), base) << "canonical bit " << bit;
    }
    // Four bool bytes (taken, wroteFlags, two isStore) hold one bit.
    EXPECT_EQ(flips, bytes.size() * 8 - 4 * 7);
}

TEST(TraceV3Inspect, IndexTilesTheFileExactly)
{
    const Workload &w = findWorkload("crafty");
    const std::string path = testPath("inspect.rpl3");
    V3Options opts;
    opts.chunkRecords = 256;
    TraceV3Writer::dumpProgram(w.buildProgram(0), 1000, path, opts);

    const V3Info info = inspectV3(path);
    ASSERT_TRUE(info.ok()) << info.error.describe();
    EXPECT_EQ(info.recordCount, 1000u);
    EXPECT_EQ(info.chunkRecords, 256u);
    EXPECT_EQ(info.recordBytes, wire::recordWireBytes());
    ASSERT_EQ(info.chunks.size(), 4u);   // 256+256+256+232

    uint64_t next_offset = v3::HEADER_BYTES;
    uint64_t next_record = 0;
    for (const V3Info::Chunk &c : info.chunks) {
        EXPECT_EQ(c.offset, next_offset);
        EXPECT_EQ(c.firstRecord, next_record);
        next_offset = c.offset + v3::CHUNK_HEADER_BYTES + c.payloadBytes;
        next_record = c.firstRecord + c.records;
    }
    EXPECT_EQ(next_offset, info.indexOffset);
    EXPECT_EQ(next_record, 1000u);
    EXPECT_EQ(info.chunks.back().records, 232u);
    EXPECT_EQ(info.fileBytes,
              info.dictOffset() + info.dictBytes + v3::FOOTER_BYTES);

    // One dictionary entry per static instruction the trace retired.
    const x86::Program prog = w.buildProgram(0);
    ExecutorTraceSource live(prog, 1000);
    std::map<uint32_t, int> pcs;
    for (; !live.done(); live.advance())
        pcs[live.peek()->pc] = 1;
    EXPECT_EQ(info.dictEntries, pcs.size());
}

// ---------------------------------------------------------------------
// Fault injection: transient retry, persistent READ_ERROR, and a
// mapped file that shrinks while open
// ---------------------------------------------------------------------

TEST(TraceV3Faults, TransientFaultsRetriedToFullStream)
{
    const Workload &w = findWorkload("gzip");
    const std::string path = testPath("v3transient.rpl3");
    V3Options opts;
    opts.chunkRecords = 64;     // many chunk loads => many fault draws
    TraceV3Writer::dumpProgram(w.buildProgram(0), 1500, path, opts);

    for (const bool prefer_mmap : {true, false}) {
        SCOPED_TRACE(prefer_mmap ? "mmap" : "buffered");
        V3SourceOptions so;
        so.preferMmap = prefer_mmap;
        TraceV3Source src(path, so);
        Rng rng(42);
        src.setIoFaultInjector([&rng] { return rng.chance(0.15); });
        uint64_t n = 0;
        while (!src.done()) {
            src.advance();
            ++n;
        }
        EXPECT_TRUE(src.ok()) << src.error().describe();
        EXPECT_EQ(n, 1500u);
        EXPECT_GT(src.ioRetries(), 0u);
    }
}

TEST(TraceV3Faults, PersistentFaultReadsError)
{
    const Workload &w = findWorkload("gzip");
    const std::string path = testPath("v3persistent.rpl3");
    TraceV3Writer::dumpProgram(w.buildProgram(0), 800, path);

    TraceV3Source src(path);
    src.setIoFaultInjector([] { return true; });
    while (!src.done())
        src.advance();
    EXPECT_EQ(src.error().kind, Kind::READ_ERROR);
    EXPECT_EQ(src.ioRetries(), TraceV3Source::MAX_READ_RETRIES);
    EXPECT_EQ(src.error().path, path);
    EXPECT_EQ(src.error().chunkIndex, 0);

    // The failure belongs to that source alone: a fresh open of the
    // same path reads the full stream.
    const ReadResult clean = readV3(path);
    EXPECT_TRUE(clean.err.ok()) << clean.err.describe();
    EXPECT_EQ(clean.records, 800u);
}

TEST(TraceV3Faults, ShrinkWhileOpenIsTruncatedNotSigbus)
{
    // A mapped container cut short after it was opened: touching a
    // mapped page past the new end of file would raise SIGBUS, so the
    // reader must notice the shrink before the chunk is read out of
    // the map and end the stream with TRUNCATED plus the valid prefix.
    const Workload &w = findWorkload("gzip");
    const std::string path = testPath("shrink.rpl3");
    V3Options opts;
    opts.chunkRecords = 256;
    opts.codec = V3Codec::RAW;
    TraceV3Writer::dumpProgram(w.buildProgram(0), 2048, path, opts);
    const ReadResult ref = readV3(path);
    ASSERT_TRUE(ref.err.ok()) << ref.err.describe();
    const V3Info info = inspectV3(path);
    ASSERT_TRUE(info.ok()) << info.error.describe();
    ASSERT_EQ(info.chunks.size(), 8u);

    TraceV3Source src(path);
    ASSERT_TRUE(src.ok()) << src.error().describe();
    ASSERT_TRUE(src.usedMmap());
    // Consume the first chunk, then cut the file inside chunk 3.
    std::vector<uint32_t> pcs;
    for (unsigned i = 0; i < 256; ++i) {
        ASSERT_FALSE(src.done());
        pcs.push_back(src.peek()->pc);
        src.advance();
    }
    ASSERT_TRUE(FaultInjector::truncateFile(path,
                                            info.chunks[3].offset + 40));
    while (!src.done()) {
        pcs.push_back(src.peek()->pc);
        src.advance();
    }
    EXPECT_EQ(src.error().kind, Kind::TRUNCATED)
        << src.error().describe();
    EXPECT_EQ(src.error().chunkIndex, 3);
    EXPECT_EQ(src.consumed(), 3u * 256u);
    ASSERT_LE(pcs.size(), ref.pcs.size());
    EXPECT_TRUE(std::equal(pcs.begin(), pcs.end(), ref.pcs.begin()));
}

// ---------------------------------------------------------------------
// Robustness: a missing, garbage or unwritable file is a typed error,
// and the simulator completes on a damaged container's valid prefix
// ---------------------------------------------------------------------

TEST(TraceRobustness, GarbageFileIsEmptyWithBadMagic)
{
    const std::string path = testPath("garbage.rpl3");
    const std::string text =
        "this is not a trace file at all, not even close";
    spit(path, std::vector<uint8_t>(text.begin(), text.end()));
    TraceV3Source src(path);
    EXPECT_FALSE(src.ok());
    EXPECT_EQ(src.error().kind, Kind::BAD_MAGIC);
    EXPECT_TRUE(src.done());
    EXPECT_EQ(src.peek(), nullptr);
}

TEST(TraceRobustness, MissingFileReportsOpenFailure)
{
    TraceV3Source src(testPath("does-not-exist.rpl3"));
    EXPECT_FALSE(src.ok());
    EXPECT_EQ(src.error().kind, Kind::OPEN_FAILED);
    EXPECT_TRUE(src.done());
}

TEST(TraceRobustness, WriterSurfacesOpenFailure)
{
    TraceV3Writer writer(testPath("no-such-dir/x/y/z.rpl3"));
    EXPECT_FALSE(writer.ok());
    EXPECT_EQ(writer.error().kind, Kind::OPEN_FAILED);
    writer.write(TraceRecord{});      // must be a safe no-op
    const TraceError err = writer.close();
    EXPECT_EQ(err.kind, Kind::OPEN_FAILED);
}

TEST(TraceRobustness, SimulatorCompletesOnChunkDamagedTrace)
{
    // A payload flip inside chunk 2 fails that chunk's checksum: the
    // source delivers exactly chunks 0 and 1, and the simulator must
    // run to completion on that prefix.
    const Workload &w = findWorkload("gzip");
    const uint64_t N = 3000;
    const std::string path = testPath("simdamage.rpl3");
    V3Options opts;
    opts.chunkRecords = 512;
    TraceV3Writer::dumpProgram(w.buildProgram(0), N, path, opts);
    const V3Info info = inspectV3(path);
    ASSERT_TRUE(info.ok()) << info.error.describe();
    ASSERT_GE(info.chunks.size(), 3u);
    const V3Info::Chunk &victim = info.chunks[2];
    ASSERT_TRUE(FaultInjector::flipByteAt(
        path, victim.offset + v3::CHUNK_HEADER_BYTES +
                  victim.payloadBytes / 2));

    TraceV3Source src(path);
    ASSERT_TRUE(src.ok()) << src.error().describe();
    sim::SimConfig cfg = sim::SimConfig::make(sim::Machine::RPO);
    const sim::RunStats stats = sim::simulateTrace(cfg, src, "gzip");
    EXPECT_GT(stats.x86Retired, 0u);
    EXPECT_LT(stats.x86Retired, N);
    EXPECT_EQ(stats.x86Retired, src.consumed());
    EXPECT_EQ(src.consumed(), victim.firstRecord);
    EXPECT_EQ(src.error().kind, Kind::BAD_CHECKSUM)
        << src.error().describe();
    EXPECT_EQ(src.error().chunkIndex, 2);
}

// ---------------------------------------------------------------------
// TraceError diagnostics: path + byte offset + chunk index, and the
// describe() rendering of all three.
// ---------------------------------------------------------------------

TEST(TraceV3Diagnostics, ErrorsCarryPathOffsetAndChunk)
{
    const Workload &w = findWorkload("gzip");
    const std::string path = testPath("diag.rpl3");
    V3Options opts;
    opts.chunkRecords = 512;
    opts.codec = V3Codec::RAW;
    TraceV3Writer::dumpProgram(w.buildProgram(0), 1500, path, opts);
    const V3Info info = inspectV3(path);
    ASSERT_TRUE(info.ok());
    ASSERT_GE(info.chunks.size(), 2u);

    const uint64_t payload_off =
        info.chunks[1].offset + v3::CHUNK_HEADER_BYTES;
    ASSERT_TRUE(FaultInjector::flipByteAt(path, payload_off + 37));

    TraceV3Source src(path);
    while (!src.done())
        src.advance();
    const TraceError &err = src.error();
    EXPECT_EQ(err.kind, Kind::BAD_CHECKSUM);
    EXPECT_EQ(err.path, path);
    EXPECT_EQ(err.byteOffset, payload_off);
    EXPECT_EQ(err.chunkIndex, 1);

    const std::string text = err.describe();
    EXPECT_NE(text.find(path), std::string::npos) << text;
    EXPECT_NE(text.find("@byte " + std::to_string(payload_off)),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("chunk 1"), std::string::npos) << text;
}

// ---------------------------------------------------------------------
// Corpus manifest round-trip on v3 containers
// ---------------------------------------------------------------------

TEST(TraceV3Corpus, ManifestRoundTripsAndPinsDigests)
{
    const std::string dir = testPath("");
    const std::string manifest = dir + "corpus_t.json";
    std::vector<CorpusEntry> entries;
    for (const char *name : {"gzip", "excel"}) {
        const Workload &w = findWorkload(name);
        for (unsigned t = 0; t < w.numTraces; ++t) {
            const x86::Program prog = w.buildProgram(t);
            CorpusEntry e;
            e.id = std::string(name) + "." + std::to_string(t);
            e.workload = name;
            e.traceIdx = t;
            e.records = 600;
            e.file = "corpus_t." + e.id + ".rpl3";
            TraceV3Writer::dumpProgram(prog, 600, dir + e.file);
            ExecutorTraceSource live(prog, 600);
            e.digest = wire::streamDigest(live);
            entries.push_back(e);
        }
    }
    const TraceError werr = writeCorpusManifest(manifest, entries);
    ASSERT_TRUE(werr.ok()) << werr.describe();

    const TraceCorpus corpus = TraceCorpus::load(manifest);
    ASSERT_TRUE(corpus.ok()) << corpus.error().describe();
    ASSERT_EQ(corpus.size(), entries.size());

    for (const CorpusEntry &want : entries) {
        const CorpusEntry *got = corpus.findById(want.id);
        ASSERT_NE(got, nullptr) << want.id;
        EXPECT_EQ(got->records, want.records);
        EXPECT_EQ(got->digest, want.digest);

        TraceError err;
        auto src = corpus.open(*got, 0, &err);
        ASSERT_NE(src, nullptr) << err.describe();
        EXPECT_EQ(wire::streamDigest(*src), want.digest);
    }

    // A recording shorter than the requested budget is a miss — the
    // caller must synthesize instead of replaying a prefix.
    EXPECT_NE(corpus.find("gzip", 0, 600), nullptr);
    EXPECT_EQ(corpus.find("gzip", 0, 601), nullptr);
    EXPECT_EQ(corpus.find("gzip", 99, 1), nullptr);
    EXPECT_EQ(corpus.find("nosuch", 0, 1), nullptr);

    // A damaged container is an open() error, pinned by the manifest.
    const CorpusEntry *victim = corpus.findById("excel.1");
    ASSERT_NE(victim, nullptr);
    ASSERT_TRUE(FaultInjector::truncateFile(
        corpus.resolvePath(*victim),
        std::filesystem::file_size(corpus.resolvePath(*victim)) - 10));
    TraceError err;
    EXPECT_EQ(corpus.open(*victim, 0, &err), nullptr);
    EXPECT_EQ(err.kind, Kind::TRUNCATED);
}

TEST(TraceV3Corpus, ShortContainerIsRefusedByItsManifestPin)
{
    // A well-formed 500-record container under an entry that pins 600
    // records is a stale artifact: open() must refuse it rather than
    // replay a shortened workload.  A budget the container does cover
    // still opens.
    const Workload &w = findWorkload("gzip");
    const x86::Program prog = w.buildProgram(0);
    const std::string dir = testPath("");
    CorpusEntry e;
    e.id = "gzip.0";
    e.workload = "gzip";
    e.traceIdx = 0;
    e.records = 600;
    e.file = "short.rpl3";
    TraceV3Writer::dumpProgram(prog, 500, dir + e.file);
    ExecutorTraceSource live(prog, 600);
    e.digest = wire::streamDigest(live);
    const std::string manifest = dir + "corpus_short.json";
    const TraceError werr = writeCorpusManifest(manifest, {e});
    ASSERT_TRUE(werr.ok()) << werr.describe();

    const TraceCorpus corpus = TraceCorpus::load(manifest);
    ASSERT_TRUE(corpus.ok()) << corpus.error().describe();
    const CorpusEntry *entry = corpus.find("gzip", 0, 600);
    ASSERT_NE(entry, nullptr);
    ASSERT_TRUE(inspectV3(corpus.resolvePath(*entry)).ok());

    TraceError err;
    EXPECT_EQ(corpus.open(*entry, 0, &err), nullptr);
    EXPECT_EQ(err.kind, Kind::TRUNCATED) << err.describe();
    EXPECT_EQ(err.path, corpus.resolvePath(*entry));
    EXPECT_EQ(corpus.open(*entry, 550, &err), nullptr);
    EXPECT_EQ(err.kind, Kind::TRUNCATED) << err.describe();

    auto src = corpus.open(*entry, 400, &err);
    ASSERT_NE(src, nullptr) << err.describe();
    EXPECT_TRUE(err.ok());
    ExecutorTraceSource head(prog, 400);
    EXPECT_EQ(wire::streamDigest(*src), wire::streamDigest(head));
}
