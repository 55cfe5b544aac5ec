/**
 * @file
 * Trace container: chunked, block-compressed, checksummed.
 *
 * The paper's workloads are hardware-captured trace *files* (§5.1.1);
 * this module is the equivalent persistent form for our records, so a
 * trace can be captured once and replayed through the simulator any
 * number of times.  The container (format version 5; the class and
 * file names keep the "v3" of the chunked layout) is built around
 * *chunks*:
 *
 *   HEADER   magic/version/record-size guard, record count, codec,
 *            chunk size, index offset, header checksum
 *   CHUNK*   [chunk header: magic, payload bytes, raw bytes, records,
 *             first record, checksum][payload]
 *   INDEX    one entry per chunk {offset, first record, payload bytes,
 *             records, checksum}
 *   DICT     one entry per static instruction {pc, length, Inst}, in
 *            ascending pc order
 *   FOOTER   index offset, chunk count, index+dictionary checksum,
 *            dictionary entries, magic
 *
 * Each chunk's payload is its records in the compact chunk coding
 * (wire::ChunkEncoder, trace/chunk.hh; "raw bytes" is its length), either
 * stored raw or as a raw deflate stream.  A record names its instruction
 * by pc in the container's dictionary (wire::InstDictionary), which is
 * loaded with the index at open; after that each chunk decodes on its
 * own.  The header's record size is that of the canonical encoding, the
 * stream's identity.  A chunk's checksum is a word-at-a-time FNV over
 * the *stored* bytes, so integrity is verified before any decompression
 * touches the data.
 * The index footer is cross-checked against the header and every chunk
 * header, so a stale, spliced or cut-off container is rejected before
 * its payload is trusted.
 *
 * Reads go through an mmap zero-copy path by default (the chunk
 * payload is checksummed and decoded directly out of the mapping, no
 * fread, no staging copy), falling back to buffered FILE* reads when
 * mmap is unavailable or refused.  Failures never terminate the
 * process: a damaged file yields a typed TraceError (TRUNCATED /
 * BAD_CHECKSUM / READ_ERROR / ...) carrying the byte offset, chunk
 * index, and path of the failure, plus the valid prefix when the
 * damage is mid-stream; transient read faults retry with backoff, a
 * persistent one ends the stream with READ_ERROR, and the same
 * fault-injector hook exercises both paths.
 */

#ifndef REPLAY_TRACE_TRACEV3_HH
#define REPLAY_TRACE_TRACEV3_HH

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "trace/chunk.hh"
#include "trace/record.hh"

namespace replay::trace {

/** Status/expected-style error descriptor for trace I/O. */
struct TraceError
{
    enum class Kind : uint8_t
    {
        NONE,               ///< no error
        OPEN_FAILED,        ///< file could not be opened
        SHORT_HEADER,       ///< file ends inside the header
        BAD_MAGIC,          ///< not a trace file
        BAD_VERSION,        ///< unsupported format version
        BAD_RECORD_SIZE,    ///< header record size != decoder's
        TRUNCATED,          ///< file cut off, or shorter than pinned
        BAD_CHECKSUM,       ///< header or chunk payload failed its checksum
        WRITE_FAILED,       ///< fwrite reported a short write
        FLUSH_FAILED,       ///< flush/close failed
        READ_ERROR,         ///< read fault persisted through retries
        BAD_CHUNK,          ///< chunk header corrupt or stale
        BAD_INDEX,          ///< footer/index corrupt or inconsistent
        BAD_CODEC,          ///< chunk codec unknown or unavailable
    };

    Kind kind = Kind::NONE;
    std::string message;

    // Diagnostic anchors: every error names the file it came from and
    // where in it the failure was detected, so an operator can go from
    // a log line straight to a hexdump offset.
    std::string path;       ///< offending trace file ("" = not file-bound)
    uint64_t byteOffset = 0; ///< file offset nearest the failure
    int64_t chunkIndex = -1; ///< chunk ordinal, -1 = not chunk-scoped

    bool ok() const { return kind == Kind::NONE; }

    /** Error anchored to a byte offset (and optionally a chunk). */
    static TraceError
    at(Kind kind, std::string msg, std::string file_path,
       uint64_t byte_offset, int64_t chunk_index = -1)
    {
        TraceError err;
        err.kind = kind;
        err.message = std::move(msg);
        err.path = std::move(file_path);
        err.byteOffset = byte_offset;
        err.chunkIndex = chunk_index;
        return err;
    }

    /** One-line report: kind, message, and the diagnostic anchors. */
    std::string describe() const;
};

const char *traceErrorKindName(TraceError::Kind kind);

/** v3 on-disk layout constants (tests corrupt fields by offset). */
namespace v3 {

constexpr uint32_t MAGIC = 0x52504c54;        // "RPLT"
constexpr uint32_t VERSION = 5;
constexpr uint32_t CHUNK_MAGIC = 0x334b4843;  // "CHK3"
constexpr uint32_t FOOTER_MAGIC = 0x33465052; // "RPF3"

/** Header: magic, version, recordBytes, recordCount, codec,
 *  chunkRecords, indexOffset, headerChecksum. */
constexpr size_t HEADER_BYTES = 4 + 4 + 4 + 8 + 4 + 4 + 8 + 4;

/** Chunk header: magic, payloadBytes, rawBytes, records, firstRecord,
 *  checksum. */
constexpr size_t CHUNK_HEADER_BYTES = 4 + 4 + 4 + 4 + 8 + 4;

/** Index entry: offset, firstRecord, payloadBytes, records, checksum. */
constexpr size_t INDEX_ENTRY_BYTES = 8 + 8 + 4 + 4 + 4;

/** Footer: indexOffset, chunkCount, indexChecksum (over the index and
 *  the dictionary), dictEntries, magic. */
constexpr size_t FOOTER_BYTES = 8 + 4 + 4 + 4 + 4;

// Field offsets within the footer.
constexpr size_t FTR_OFF_INDEX_OFFSET = 0;
constexpr size_t FTR_OFF_CHUNK_COUNT = 8;
constexpr size_t FTR_OFF_CHECKSUM = 12;
constexpr size_t FTR_OFF_DICT_ENTRIES = 16;
constexpr size_t FTR_OFF_MAGIC = 20;

/** zlib level of every ZLIB chunk (raw deflate, no zlib wrapper).  On
 *  this payload level 1 deflates in half level 6's time for 6% more
 *  stored bytes, and still ingests far faster than format 4; corpus
 *  set-up is 0.84x level 4's (EXPERIMENTS.md "Container-wide
 *  instruction dictionary"). */
constexpr int DEFLATE_LEVEL = 1;

// Field offsets within the header (for targeted corruption tests).
constexpr size_t HDR_OFF_MAGIC = 0;
constexpr size_t HDR_OFF_VERSION = 4;
constexpr size_t HDR_OFF_RECORD_BYTES = 8;
constexpr size_t HDR_OFF_RECORD_COUNT = 12;
constexpr size_t HDR_OFF_CODEC = 20;
constexpr size_t HDR_OFF_CHUNK_RECORDS = 24;
constexpr size_t HDR_OFF_INDEX_OFFSET = 28;
constexpr size_t HDR_OFF_CHECKSUM = 36;

// Field offsets within a chunk header.
constexpr size_t CHK_OFF_MAGIC = 0;
constexpr size_t CHK_OFF_PAYLOAD_BYTES = 4;
constexpr size_t CHK_OFF_RAW_BYTES = 8;
constexpr size_t CHK_OFF_RECORDS = 12;
constexpr size_t CHK_OFF_FIRST_RECORD = 16;
constexpr size_t CHK_OFF_CHECKSUM = 24;

} // namespace v3

/** Chunk payload codecs. */
enum class V3Codec : uint32_t
{
    RAW = 0,        ///< stored verbatim (fastest ingest, zero-copy)
    ZLIB = 1,       ///< raw deflate streams (compact corpus artifacts)
};

const char *v3CodecName(V3Codec codec);

/** True when this build can inflate ZLIB chunks. */
bool v3ZlibAvailable();

/** Writer/recorder options. */
struct V3Options
{
    /** Records per chunk.  The default (~100kB raw per chunk)
     *  amortizes the per-chunk header while keeping the decoded
     *  window small. */
    uint32_t chunkRecords = 1024;

    V3Codec codec = defaultCodec();

    /** ZLIB when compiled in, RAW otherwise. */
    static V3Codec defaultCodec();
};

/** Streaming writer for the v3 container. */
class TraceV3Writer
{
  public:
    explicit TraceV3Writer(const std::string &path, V3Options opts = {});
    ~TraceV3Writer();

    TraceV3Writer(const TraceV3Writer &) = delete;
    TraceV3Writer &operator=(const TraceV3Writer &) = delete;

    /** Append one record (no-op once in the error state). */
    void write(const TraceRecord &rec);

    /** Flush the pending chunk, write index + footer, patch the
     *  header, and close.  Returns the first error of the writer's
     *  whole life. */
    TraceError close();

    bool ok() const { return error_.ok(); }
    const TraceError &error() const { return error_; }
    uint64_t written() const { return count_; }

    /** Convenience: dump the first @p insts of a program to @p path. */
    static uint64_t dumpProgram(const x86::Program &program,
                                uint64_t insts, const std::string &path,
                                V3Options opts = {});

  private:
    struct PendingEntry
    {
        uint64_t offset;
        uint64_t firstRecord;
        uint32_t payloadBytes;
        uint32_t records;
        uint32_t checksum;
    };

    /** The reused raw-deflate stream (defined with zlib). */
    struct Deflater;

    void fail(TraceError::Kind kind, std::string msg);
    bool flushChunk();

    std::FILE *file_ = nullptr;
    std::string path_;
    V3Options opts_;
    uint64_t count_ = 0;            ///< records written so far
    uint64_t fileOffset_ = 0;       ///< running write position
    wire::ChunkEncoder encoder_;    ///< codes the pending chunk
    std::vector<uint8_t> raw_;      ///< pending coded records
    size_t rawLen_ = 0;             ///< bytes of raw_ in use
    uint32_t pendingRecords_ = 0;
    std::vector<uint8_t> zbuf_;     ///< compression scratch
    std::unique_ptr<Deflater> deflater_;
    std::vector<PendingEntry> index_;
    TraceError error_;
};

/** Read-side options for TraceV3Source. */
struct V3SourceOptions
{
    /** Map the file and decode straight out of the mapping; false
     *  (or mmap failure) selects the buffered FILE* fallback. */
    bool preferMmap = true;

    /** Present only the first N records (0 = all).  Replay budget cap
     *  for corpus traces recorded longer than a sweep needs. */
    uint64_t limitRecords = 0;
};

/** TraceSource over a v3 container. */
class TraceV3Source : public TraceSource
{
  public:
    using Options = V3SourceOptions;

    explicit TraceV3Source(const std::string &path, Options opts = {});
    ~TraceV3Source() override;

    TraceV3Source(const TraceV3Source &) = delete;
    TraceV3Source &operator=(const TraceV3Source &) = delete;

    const TraceRecord *peek(unsigned ahead = 0) override;
    void advance() override;
    bool done() override;
    uint64_t consumed() const override { return consumed_; }

    bool ok() const { return error_.ok(); }
    const TraceError &error() const { return error_; }

    /** Records the container holds (after the limit cap). */
    uint64_t totalRecords() const { return effTotal_; }

    /** Number of chunks the index describes. */
    size_t chunkCount() const { return index_.size(); }

    /** True when the mmap zero-copy path is active. */
    bool usedMmap() const { return map_ != nullptr; }

    /**
     * Fault-injection hook: when set, each chunk load first asks the
     * hook whether to behave as a failed read (transient I/O fault).
     * The injected fault exercises exactly the retry/backoff path
     * real transient EIO does — in both the buffered and mmap modes.
     */
    void
    setIoFaultInjector(std::function<bool()> hook)
    {
        ioInject_ = std::move(hook);
    }

    /** Transient chunk-load faults absorbed by retrying. */
    uint64_t ioRetries() const { return ioRetries_; }

    /** Consecutive same-chunk retries before declaring READ_ERROR. */
    static constexpr unsigned MAX_READ_RETRIES = 3;

  private:
    struct IndexEntry
    {
        uint64_t offset;
        uint64_t firstRecord;
        uint32_t payloadBytes;
        uint32_t records;
        uint32_t checksum;
    };

    struct DecodedChunk
    {
        uint64_t firstRecord = 0;
        std::vector<TraceRecord> recs;
    };

    /** The reused raw-inflate stream (defined with zlib). */
    struct Inflater;

    void fail(TraceError::Kind kind, std::string msg, uint64_t offset,
              int64_t chunk = -1);
    bool openAndValidate(const std::string &path);
    bool mapCovers(uint64_t end) const;
    void closeMap();
    const uint8_t *loadBytes(uint64_t offset, size_t len, size_t chunk);
    bool loadNextChunk();
    const TraceRecord *locate(uint64_t rec);
    void recycleFront();

    std::FILE *file_ = nullptr;
    const uint8_t *map_ = nullptr;
    size_t mapLen_ = 0;
    int mapFd_ = -1;            ///< kept open to re-check the file size
    std::string path_;
    Options opts_;

    uint64_t total_ = 0;        ///< records the container holds
    uint64_t effTotal_ = 0;     ///< min(total, limit)
    uint64_t consumed_ = 0;     ///< cursor (record index)
    V3Codec codec_ = V3Codec::RAW;
    std::vector<IndexEntry> index_;
    size_t nextChunk_ = 0;      ///< next index entry to load

    std::vector<DecodedChunk> window_;  ///< decoded, front = oldest
    std::vector<std::vector<TraceRecord>> pool_;

    std::vector<uint8_t> ioBuf_;    ///< buffered-mode chunk staging
    std::vector<uint8_t> rawBuf_;   ///< decompression scratch
    std::unique_ptr<Inflater> inflater_;
    wire::InstDictionary dict_;     ///< loaded with the index at open
    wire::ChunkDecoder decoder_{dict_}; ///< decodes one chunk at a time

    TraceError error_;
    std::function<bool()> ioInject_;
    uint64_t ioRetries_ = 0;
};

/** Parsed container metadata (tracec inspect/index, layout tests). */
struct V3Info
{
    TraceError error;           ///< why inspection stopped, if it did

    uint64_t fileBytes = 0;
    uint32_t recordBytes = 0;
    uint64_t recordCount = 0;
    V3Codec codec = V3Codec::RAW;
    uint32_t chunkRecords = 0;
    uint64_t indexOffset = 0;
    uint32_t dictEntries = 0;   ///< static instructions in the dictionary
    uint64_t dictBytes = 0;     ///< stored bytes of the dictionary

    struct Chunk
    {
        uint64_t offset;
        uint64_t firstRecord;
        uint32_t payloadBytes;
        uint32_t records;
        uint32_t checksum;
        uint32_t rawBytes = 0;  ///< coded (uncompressed) payload bytes
    };
    std::vector<Chunk> chunks;

    bool ok() const { return error.ok(); }

    /** Stored (possibly compressed) payload bytes across all chunks. */
    uint64_t payloadBytes() const;

    /** Coded payload bytes before compression, across all chunks. */
    uint64_t rawBytes() const;

    /** File offset of the dictionary: right after the chunk index. */
    uint64_t
    dictOffset() const
    {
        return indexOffset + chunks.size() * v3::INDEX_ENTRY_BYTES;
    }
};

/** Read header/footer/index without touching chunk payloads. */
V3Info inspectV3(const std::string &path);

} // namespace replay::trace

#endif // REPLAY_TRACE_TRACEV3_HH
