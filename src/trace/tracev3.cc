#include "trace/tracev3.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "trace/chunk.hh"
#include "util/logging.hh"
#include "x86/executor.hh"

#if defined(REPLAY_HAVE_ZLIB)
#include <zlib.h>
#endif

#if __has_include(<sys/mman.h>)
#define REPLAY_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace replay::trace {

std::string
TraceError::describe() const
{
    std::string out = traceErrorKindName(kind);
    out += ": ";
    out += message;
    if (!path.empty()) {
        out += " [";
        out += path;
        out += " @byte " + std::to_string(byteOffset);
        if (chunkIndex >= 0)
            out += " chunk " + std::to_string(chunkIndex);
        out += "]";
    }
    return out;
}

const char *
traceErrorKindName(TraceError::Kind kind)
{
    switch (kind) {
      case TraceError::Kind::NONE:            return "none";
      case TraceError::Kind::OPEN_FAILED:     return "open_failed";
      case TraceError::Kind::SHORT_HEADER:    return "short_header";
      case TraceError::Kind::BAD_MAGIC:       return "bad_magic";
      case TraceError::Kind::BAD_VERSION:     return "bad_version";
      case TraceError::Kind::BAD_RECORD_SIZE: return "bad_record_size";
      case TraceError::Kind::TRUNCATED:       return "truncated";
      case TraceError::Kind::BAD_CHECKSUM:    return "bad_checksum";
      case TraceError::Kind::WRITE_FAILED:    return "write_failed";
      case TraceError::Kind::FLUSH_FAILED:    return "flush_failed";
      case TraceError::Kind::READ_ERROR:      return "read_error";
      case TraceError::Kind::BAD_CHUNK:       return "bad_chunk";
      case TraceError::Kind::BAD_INDEX:       return "bad_index";
      case TraceError::Kind::BAD_CODEC:       return "bad_codec";
    }
    return "?";
}

const char *
v3CodecName(V3Codec codec)
{
    switch (codec) {
      case V3Codec::RAW:  return "raw";
      case V3Codec::ZLIB: return "zlib";
    }
    return "?";
}

bool
v3ZlibAvailable()
{
#if defined(REPLAY_HAVE_ZLIB)
    return true;
#else
    return false;
#endif
}

V3Codec
V3Options::defaultCodec()
{
    return v3ZlibAvailable() ? V3Codec::ZLIB : V3Codec::RAW;
}

namespace {

using Kind = TraceError::Kind;

/** Serialize the 40-byte v3 header; checksum covers the first 36. */
void
encodeHeader(uint8_t *buf, uint64_t records, V3Codec codec,
             uint32_t chunk_records, uint64_t index_offset)
{
    wire::Encoder e{buf};
    e.u32(v3::MAGIC);
    e.u32(v3::VERSION);
    e.u32(uint32_t(wire::recordWireBytes()));
    e.u64(records);
    e.u32(uint32_t(codec));
    e.u32(chunk_records);
    e.u64(index_offset);
    e.u32(wire::fnv1a32(buf, v3::HDR_OFF_CHECKSUM));
}

/** Everything the header/footer/index describe about a container. */
struct Meta
{
    TraceError error;
    uint64_t fileBytes = 0;
    uint32_t recordBytes = 0;
    uint64_t recordCount = 0;
    V3Codec codec = V3Codec::RAW;
    uint32_t chunkRecords = 0;
    uint64_t indexOffset = 0;
    std::vector<V3Info::Chunk> chunks;
    wire::InstDictionary dict;

    bool ok() const { return error.ok(); }
};

/**
 * Parse and cross-check header, footer, index and dictionary through
 * @p readAt
 * (absolute offset → buffer; false on I/O failure).  This is the one
 * structural validator: the mmap reader, the buffered reader, and the
 * inspector all agree on what a well-formed container is because they
 * all run this.
 */
Meta
parseContainer(const std::string &path, uint64_t file_bytes,
               const std::function<bool(uint64_t, size_t, uint8_t *)>
                   &readAt)
{
    Meta m;
    m.fileBytes = file_bytes;
    auto fail = [&](Kind kind, std::string msg, uint64_t offset) {
        m.error = TraceError::at(kind, std::move(msg), path, offset);
        return m;
    };

    if (file_bytes < v3::HEADER_BYTES)
        return fail(Kind::SHORT_HEADER,
                    "trace file '" + path + "' has no v3 header", 0);

    uint8_t hdr[v3::HEADER_BYTES];
    if (!readAt(0, sizeof(hdr), hdr))
        return fail(Kind::READ_ERROR,
                    "cannot read v3 header of '" + path + "'", 0);
    wire::Decoder d{hdr};
    const uint32_t magic = d.u32();
    const uint32_t version = d.u32();
    const uint32_t rec_bytes = d.u32();
    const uint64_t records = d.u64();
    const uint32_t codec = d.u32();
    const uint32_t chunk_records = d.u32();
    const uint64_t index_offset = d.u64();
    const uint32_t hdr_sum = d.u32();

    if (magic != v3::MAGIC)
        return fail(Kind::BAD_MAGIC, "'" + path + "' is not a trace file",
                    v3::HDR_OFF_MAGIC);
    if (version != v3::VERSION)
        return fail(Kind::BAD_VERSION,
                    "trace file '" + path + "' has version " +
                        std::to_string(version) + ", expected " +
                        std::to_string(v3::VERSION),
                    v3::HDR_OFF_VERSION);
    if (hdr_sum != wire::fnv1a32(hdr, v3::HDR_OFF_CHECKSUM))
        return fail(Kind::BAD_CHECKSUM,
                    "trace file '" + path +
                        "' header failed its checksum",
                    v3::HDR_OFF_CHECKSUM);
    if (rec_bytes != wire::recordWireBytes())
        return fail(Kind::BAD_RECORD_SIZE,
                    "trace file '" + path + "' declares " +
                        std::to_string(rec_bytes) +
                        "-byte records, expected " +
                        std::to_string(wire::recordWireBytes()),
                    v3::HDR_OFF_RECORD_BYTES);
    if (codec > uint32_t(V3Codec::ZLIB))
        return fail(Kind::BAD_CODEC,
                    "trace file '" + path + "' uses unknown codec " +
                        std::to_string(codec),
                    v3::HDR_OFF_CODEC);
    if (codec == uint32_t(V3Codec::ZLIB) && !v3ZlibAvailable())
        return fail(Kind::BAD_CODEC,
                    "trace file '" + path +
                        "' is zlib-compressed but this build has no zlib",
                    v3::HDR_OFF_CODEC);

    m.recordBytes = rec_bytes;
    m.recordCount = records;
    m.codec = V3Codec(codec);
    m.chunkRecords = chunk_records;
    m.indexOffset = index_offset;

    // Footer: a file that ends before (or inside) it was cut off
    // mid-write — the chunks may be fine, but without a trustworthy
    // index the whole container is TRUNCATED.
    if (file_bytes < v3::HEADER_BYTES + v3::FOOTER_BYTES)
        return fail(Kind::TRUNCATED,
                    "trace file '" + path + "' ends before its footer",
                    file_bytes);
    const uint64_t footer_off = file_bytes - v3::FOOTER_BYTES;
    uint8_t ftr[v3::FOOTER_BYTES];
    if (!readAt(footer_off, sizeof(ftr), ftr))
        return fail(Kind::READ_ERROR,
                    "cannot read v3 footer of '" + path + "'",
                    footer_off);
    wire::Decoder fd{ftr};
    const uint64_t ftr_index_offset = fd.u64();
    const uint32_t chunk_count = fd.u32();
    const uint32_t index_sum = fd.u32();
    const uint32_t dict_entries = fd.u32();
    const uint32_t ftr_magic = fd.u32();

    if (ftr_magic != v3::FOOTER_MAGIC)
        return fail(Kind::TRUNCATED,
                    "trace file '" + path +
                        "' has no footer magic (cut off mid-write?)",
                    file_bytes - 4);
    if (ftr_index_offset != index_offset)
        return fail(Kind::BAD_INDEX,
                    "trace file '" + path +
                        "' header and footer disagree on the index "
                        "offset (stale index?)",
                    footer_off);
    // The index and the dictionary after it fill the span between the
    // chunks and the footer exactly.
    const uint64_t index_bytes =
        uint64_t(chunk_count) * v3::INDEX_ENTRY_BYTES;
    const uint64_t dict_bytes =
        uint64_t(dict_entries) * wire::DICT_ENTRY_BYTES;
    if (index_offset < v3::HEADER_BYTES || index_offset > file_bytes ||
        file_bytes - index_offset !=
            index_bytes + dict_bytes + v3::FOOTER_BYTES)
        return fail(Kind::BAD_INDEX,
                    "trace file '" + path +
                        "' index and dictionary do not tile the file "
                        "(offset " +
                        std::to_string(index_offset) + ", " +
                        std::to_string(chunk_count) + " chunks, " +
                        std::to_string(dict_entries) +
                        " dictionary entries, " +
                        std::to_string(file_bytes) + " bytes)",
                    footer_off);

    std::vector<uint8_t> index;
    index.resize(size_t(index_bytes + dict_bytes));
    if (!index.empty() &&
        !readAt(index_offset, index.size(), index.data()))
        return fail(Kind::READ_ERROR,
                    "cannot read v3 index of '" + path + "'",
                    index_offset);
    if (wire::fnv1a32(index.data(), index.size()) != index_sum)
        return fail(Kind::BAD_INDEX,
                    "trace file '" + path +
                        "' index or dictionary failed its checksum",
                    index_offset);

    // Structural walk: chunks must tile [header, index) in order and
    // the record ranges must tile [0, recordCount) exactly.  A stale
    // index (record count no longer matching) or a duplicated/spliced
    // chunk shows up here before any payload is touched.
    m.chunks.reserve(chunk_count);
    uint64_t next_offset = v3::HEADER_BYTES;
    uint64_t next_record = 0;
    for (uint32_t i = 0; i < chunk_count; ++i) {
        wire::Decoder ed{index.data() +
                         size_t(i) * v3::INDEX_ENTRY_BYTES};
        V3Info::Chunk c;
        c.offset = ed.u64();
        c.firstRecord = ed.u64();
        c.payloadBytes = ed.u32();
        c.records = ed.u32();
        c.checksum = ed.u32();
        if (c.offset != next_offset || c.firstRecord != next_record ||
            c.records == 0) {
            m.error = TraceError::at(
                Kind::BAD_INDEX,
                "trace file '" + path + "' index entry " +
                    std::to_string(i) +
                    " does not tile the container (offset " +
                    std::to_string(c.offset) + ", first record " +
                    std::to_string(c.firstRecord) + ")",
                path,
                index_offset + uint64_t(i) * v3::INDEX_ENTRY_BYTES,
                int64_t(i));
            return m;
        }
        next_offset = c.offset + v3::CHUNK_HEADER_BYTES + c.payloadBytes;
        next_record = c.firstRecord + c.records;
        m.chunks.push_back(c);
    }
    if (next_offset != index_offset || next_record != records) {
        m.error = TraceError::at(
            Kind::BAD_INDEX,
            "trace file '" + path + "' index covers " +
                std::to_string(next_record) + " records, header claims " +
                std::to_string(records) + " (stale index?)",
            path, index_offset);
        return m;
    }

    size_t bad = 0;
    if (!m.dict.load(index.data() + index_bytes, dict_entries, &bad))
        return fail(Kind::BAD_INDEX,
                    "trace file '" + path + "' dictionary entry " +
                        std::to_string(bad) +
                        " is a duplicate or out of pc order",
                    index_offset + index_bytes +
                        uint64_t(bad) * wire::DICT_ENTRY_BYTES);
    return m;
}

} // anonymous namespace

// Chunks are raw deflate streams (windowBits -15): the chunk checksum
// already seals the stored bytes and decoding must consume exactly
// rawBytes, so the zlib wrapper's header and adler32 would only repeat
// those checks.  One stream per writer or source is reset per chunk.
#if defined(REPLAY_HAVE_ZLIB)
struct TraceV3Writer::Deflater
{
    z_stream zs{};
    bool ready = deflateInit2(&zs, v3::DEFLATE_LEVEL, Z_DEFLATED, -15, 8,
                              Z_DEFAULT_STRATEGY) == Z_OK;

    ~Deflater()
    {
        if (ready)
            deflateEnd(&zs);
    }
};

struct TraceV3Source::Inflater
{
    z_stream zs{};
    bool ready = inflateInit2(&zs, -15) == Z_OK;

    ~Inflater()
    {
        if (ready)
            inflateEnd(&zs);
    }
};
#else
struct TraceV3Writer::Deflater {};
struct TraceV3Source::Inflater {};
#endif

// --------------------------------------------------------------------
// Writer
// --------------------------------------------------------------------

void
TraceV3Writer::fail(TraceError::Kind kind, std::string msg)
{
    if (error_.ok())
        error_ = TraceError::at(kind, std::move(msg), path_, fileOffset_);
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

TraceV3Writer::TraceV3Writer(const std::string &path, V3Options opts)
    : path_(path), opts_(opts)
{
    if (opts_.chunkRecords == 0)
        opts_.chunkRecords = 1;
    if (opts_.codec == V3Codec::ZLIB && !v3ZlibAvailable())
        opts_.codec = V3Codec::RAW;
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_) {
        fail(TraceError::Kind::OPEN_FAILED,
             "cannot open trace file '" + path + "' for writing");
        return;
    }
    uint8_t hdr[v3::HEADER_BYTES];
    encodeHeader(hdr, 0, opts_.codec, opts_.chunkRecords, 0);
    if (std::fwrite(hdr, sizeof(hdr), 1, file_) != 1) {
        fail(TraceError::Kind::WRITE_FAILED,
             "cannot write v3 header to '" + path + "'");
        return;
    }
    fileOffset_ = v3::HEADER_BYTES;
}

TraceV3Writer::~TraceV3Writer()
{
    if (file_)
        close();
}

void
TraceV3Writer::write(const TraceRecord &rec)
{
    if (!file_)
        return;
    if (raw_.size() < rawLen_ + wire::MAX_CODED_RECORD_BYTES)
        raw_.resize(std::max(2 * raw_.size(),
                             rawLen_ + wire::MAX_CODED_RECORD_BYTES));
    rawLen_ += encoder_.encode(rec, raw_.data() + rawLen_);
    ++pendingRecords_;
    ++count_;
    if (pendingRecords_ >= opts_.chunkRecords)
        flushChunk();
}

bool
TraceV3Writer::flushChunk()
{
    if (!file_ || pendingRecords_ == 0)
        return file_ != nullptr;

    const uint8_t *payload = raw_.data();
    uint32_t payload_bytes = uint32_t(rawLen_);
#if defined(REPLAY_HAVE_ZLIB)
    if (opts_.codec == V3Codec::ZLIB) {
        if (!deflater_)
            deflater_ = std::make_unique<Deflater>();
        z_stream &zs = deflater_->zs;
        bool ok = deflater_->ready && deflateReset(&zs) == Z_OK;
        if (ok) {
            zbuf_.resize(deflateBound(&zs, uLong(rawLen_)));
            zs.next_in = raw_.data();
            zs.avail_in = uInt(rawLen_);
            zs.next_out = zbuf_.data();
            zs.avail_out = uInt(zbuf_.size());
            ok = deflate(&zs, Z_FINISH) == Z_STREAM_END;
        }
        if (!ok) {
            fail(TraceError::Kind::WRITE_FAILED,
                 "zlib compression failed for chunk " +
                     std::to_string(index_.size()));
            return false;
        }
        payload = zbuf_.data();
        payload_bytes = uint32_t(zbuf_.size() - zs.avail_out);
    }
#endif

    PendingEntry entry;
    entry.offset = fileOffset_;
    entry.firstRecord = count_ - pendingRecords_;
    entry.payloadBytes = payload_bytes;
    entry.records = pendingRecords_;
    entry.checksum = wire::chunkChecksum(payload, payload_bytes);

    uint8_t hdr[v3::CHUNK_HEADER_BYTES];
    wire::Encoder e{hdr};
    e.u32(v3::CHUNK_MAGIC);
    e.u32(payload_bytes);
    e.u32(uint32_t(rawLen_));
    e.u32(entry.records);
    e.u64(entry.firstRecord);
    e.u32(entry.checksum);

    if (std::fwrite(hdr, sizeof(hdr), 1, file_) != 1 ||
        std::fwrite(payload, payload_bytes, 1, file_) != 1) {
        fail(TraceError::Kind::WRITE_FAILED,
             "short write of chunk " + std::to_string(index_.size()));
        return false;
    }
    fileOffset_ += v3::CHUNK_HEADER_BYTES + payload_bytes;
    index_.push_back(entry);
    rawLen_ = 0;
    pendingRecords_ = 0;
    encoder_.reset();
    return true;
}

TraceError
TraceV3Writer::close()
{
    if (!file_)
        return error_;
    if (!flushChunk())
        return error_;

    // The index, then the dictionary, both sealed by the footer's
    // checksum.
    const uint64_t index_offset = fileOffset_;
    const wire::InstDictionary &dict = encoder_.dictionary();
    const size_t index_bytes = index_.size() * v3::INDEX_ENTRY_BYTES;
    std::vector<uint8_t> index(index_bytes + dict.storedBytes());
    for (size_t i = 0; i < index_.size(); ++i) {
        wire::Encoder e{index.data() + i * v3::INDEX_ENTRY_BYTES};
        e.u64(index_[i].offset);
        e.u64(index_[i].firstRecord);
        e.u32(index_[i].payloadBytes);
        e.u32(index_[i].records);
        e.u32(index_[i].checksum);
    }
    dict.store(index.data() + index_bytes);
    uint8_t ftr[v3::FOOTER_BYTES];
    wire::Encoder fe{ftr};
    fe.u64(index_offset);
    fe.u32(uint32_t(index_.size()));
    fe.u32(wire::fnv1a32(index.data(), index.size()));
    fe.u32(uint32_t(dict.size()));
    fe.u32(v3::FOOTER_MAGIC);

    if ((!index.empty() &&
         std::fwrite(index.data(), index.size(), 1, file_) != 1) ||
        std::fwrite(ftr, sizeof(ftr), 1, file_) != 1) {
        fail(TraceError::Kind::WRITE_FAILED,
             "cannot write v3 index/dictionary/footer");
        return error_;
    }

    uint8_t hdr[v3::HEADER_BYTES];
    encodeHeader(hdr, count_, opts_.codec, opts_.chunkRecords,
                 index_offset);
    if (std::fseek(file_, 0, SEEK_SET) != 0 ||
        std::fwrite(hdr, sizeof(hdr), 1, file_) != 1) {
        fail(TraceError::Kind::WRITE_FAILED,
             "cannot finalize v3 header");
        return error_;
    }
    if (std::fflush(file_) != 0) {
        fail(TraceError::Kind::FLUSH_FAILED, "cannot flush trace file");
        return error_;
    }
    if (std::fclose(file_) != 0)
        error_ = TraceError::at(TraceError::Kind::FLUSH_FAILED,
                                "cannot close trace file", path_,
                                fileOffset_);
    file_ = nullptr;
    return error_;
}

uint64_t
TraceV3Writer::dumpProgram(const x86::Program &program, uint64_t insts,
                           const std::string &path, V3Options opts)
{
    TraceV3Writer writer(path, opts);
    x86::Executor exec(program);
    x86::StepInfo step;
    TraceRecord rec;
    for (uint64_t i = 0; i < insts; ++i) {
        exec.step(step);
        TraceRecord::fromStep(step, rec);
        writer.write(rec);
    }
    const TraceError err = writer.close();
    fatal_if(!err.ok(), "dumping v3 trace to '%s': %s", path.c_str(),
             err.describe().c_str());
    return insts;
}

// --------------------------------------------------------------------
// Source
// --------------------------------------------------------------------

void
TraceV3Source::fail(TraceError::Kind kind, std::string msg,
                    uint64_t offset, int64_t chunk)
{
    if (error_.ok())
        error_ = TraceError::at(kind, std::move(msg), path_, offset,
                                chunk);
    // End the stream at the last fully-validated record: whatever is
    // already decoded in the window stays deliverable, nothing past it
    // will be loaded.
    uint64_t loaded = consumed_;
    for (const DecodedChunk &c : window_)
        loaded = std::max(loaded, c.firstRecord + c.recs.size());
    effTotal_ = std::min(effTotal_, loaded);
    nextChunk_ = index_.size();
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
    // Decoded records were copied out already, and locate() returns
    // pointers into window_, never into the map, so unmapping now is
    // safe.
    closeMap();
}

void
TraceV3Source::closeMap()
{
#if defined(REPLAY_HAVE_MMAP)
    if (map_)
        munmap(const_cast<uint8_t *>(map_), mapLen_);
    if (mapFd_ >= 0)
        ::close(mapFd_);
#endif
    map_ = nullptr;
    mapLen_ = 0;
    mapFd_ = -1;
}

bool
TraceV3Source::mapCovers(uint64_t end) const
{
    // A MAP_PRIVATE page past the current end of file raises SIGBUS
    // when touched, so the file's live size — not the size it had at
    // open — must cover every byte before it is read out of the map.
    if (end > mapLen_)
        return false;
#if defined(REPLAY_HAVE_MMAP)
    struct stat st;
    return ::fstat(mapFd_, &st) == 0 && uint64_t(st.st_size) >= end;
#else
    return true;
#endif
}

TraceV3Source::TraceV3Source(const std::string &path, Options opts)
    : path_(path), opts_(opts)
{
    if (!openAndValidate(path))
        return;
    effTotal_ = total_;
    if (opts_.limitRecords && opts_.limitRecords < effTotal_)
        effTotal_ = opts_.limitRecords;
}

TraceV3Source::~TraceV3Source()
{
    if (file_)
        std::fclose(file_);
    closeMap();
}

bool
TraceV3Source::openAndValidate(const std::string &path)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_) {
        fail(TraceError::Kind::OPEN_FAILED,
             "cannot open trace file '" + path + "'", 0);
        return false;
    }
    if (std::fseek(file_, 0, SEEK_END) != 0) {
        fail(TraceError::Kind::READ_ERROR,
             "cannot size trace file '" + path + "'", 0);
        return false;
    }
    const long end = std::ftell(file_);
    if (end < 0) {
        fail(TraceError::Kind::READ_ERROR,
             "cannot size trace file '" + path + "'", 0);
        return false;
    }
    const uint64_t file_bytes = uint64_t(end);

#if defined(REPLAY_HAVE_MMAP)
    if (opts_.preferMmap && file_bytes >= v3::HEADER_BYTES) {
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd >= 0) {
            void *addr = mmap(nullptr, size_t(file_bytes), PROT_READ,
                              MAP_PRIVATE, fd, 0);
            if (addr != MAP_FAILED) {
                map_ = static_cast<const uint8_t *>(addr);
                mapLen_ = size_t(file_bytes);
                mapFd_ = fd;
                // The mapping replaces the stream entirely.
                std::fclose(file_);
                file_ = nullptr;
            } else {
                ::close(fd);
            }
        }
    }
#endif

    auto readAt = [this](uint64_t offset, size_t len,
                         uint8_t *dst) -> bool {
        if (map_) {
            if (!mapCovers(offset + len))
                return false;
            std::memcpy(dst, map_ + offset, len);
            return true;
        }
        return std::fseek(file_, long(offset), SEEK_SET) == 0 &&
               std::fread(dst, 1, len, file_) == len;
    };

    Meta m = parseContainer(path, file_bytes, readAt);
    if (!m.ok()) {
        const TraceError err = m.error;
        fail(err.kind, err.message, err.byteOffset, err.chunkIndex);
        return false;
    }
    total_ = m.recordCount;
    codec_ = m.codec;
    dict_ = std::move(m.dict);
    index_.reserve(m.chunks.size());
    for (const V3Info::Chunk &c : m.chunks)
        index_.push_back(IndexEntry{c.offset, c.firstRecord,
                                    c.payloadBytes, c.records,
                                    c.checksum});
    return true;
}

const uint8_t *
TraceV3Source::loadBytes(uint64_t offset, size_t len, size_t chunk)
{
    unsigned attempts = 0;
    for (;;) {
        // The injected fault behaves exactly like a read that came
        // back short with the stream in error: retry with backoff,
        // then fail with READ_ERROR.  It drives the identical path on
        // both the mmap and buffered modes.
        const bool injected = ioInject_ && ioInject_();
        if (!injected) {
            if (map_) {
                if (offset + len > mapLen_) {
                    fail(TraceError::Kind::TRUNCATED,
                         "trace file '" + path_ +
                             "' ends inside chunk " +
                             std::to_string(chunk),
                         offset, int64_t(chunk));
                    return nullptr;
                }
                return map_ + offset;
            }
            if (!file_)
                return nullptr;
            ioBuf_.resize(len);
            if (std::fseek(file_, long(offset), SEEK_SET) == 0 &&
                std::fread(ioBuf_.data(), 1, len, file_) == len)
                return ioBuf_.data();
            if (file_ && std::feof(file_) && !std::ferror(file_)) {
                fail(TraceError::Kind::TRUNCATED,
                     "trace file '" + path_ + "' ends inside chunk " +
                         std::to_string(chunk),
                     offset, int64_t(chunk));
                return nullptr;
            }
        }
        if (attempts < MAX_READ_RETRIES) {
            ++attempts;
            ++ioRetries_;
            std::this_thread::sleep_for(
                std::chrono::microseconds(50u << attempts));
            if (file_)
                std::clearerr(file_);
            continue;
        }
        fail(TraceError::Kind::READ_ERROR,
             "trace file '" + path_ + "' read error in chunk " +
                 std::to_string(chunk) + " (after " +
                 std::to_string(attempts) + " retries)",
             offset, int64_t(chunk));
        return nullptr;
    }
}

bool
TraceV3Source::loadNextChunk()
{
    if (nextChunk_ >= index_.size())
        return false;
    const size_t ci = nextChunk_;
    const IndexEntry entry = index_[ci];

    // The header must agree with the index (checked below), so one
    // size check covers every byte of the chunk read out of the map.
    if (map_ && !mapCovers(entry.offset + v3::CHUNK_HEADER_BYTES +
                           entry.payloadBytes)) {
        fail(TraceError::Kind::TRUNCATED,
             "trace file '" + path_ + "' shrank below chunk " +
                 std::to_string(ci) + " while open",
             entry.offset, int64_t(ci));
        return false;
    }

    const uint8_t *hdr =
        loadBytes(entry.offset, v3::CHUNK_HEADER_BYTES, ci);
    if (!hdr)
        return false;
    wire::Decoder d{hdr};
    const uint32_t magic = d.u32();
    const uint32_t payload_bytes = d.u32();
    const uint32_t raw_bytes = d.u32();
    const uint32_t records = d.u32();
    const uint64_t first_record = d.u64();
    const uint32_t sum = d.u32();

    if (magic != v3::CHUNK_MAGIC) {
        fail(TraceError::Kind::BAD_CHUNK,
             "trace file '" + path_ + "' chunk " + std::to_string(ci) +
                 " has no chunk magic",
             entry.offset, int64_t(ci));
        return false;
    }
    // The chunk header must agree with the (already FNV-verified)
    // index entry.  A duplicated or spliced chunk carries the wrong
    // firstRecord; a stale one the wrong record count or checksum.
    if (payload_bytes != entry.payloadBytes ||
        records != entry.records ||
        first_record != entry.firstRecord || sum != entry.checksum) {
        fail(TraceError::Kind::BAD_CHUNK,
             "trace file '" + path_ + "' chunk " + std::to_string(ci) +
                 " disagrees with the index (duplicated or stale "
                 "chunk?)",
             entry.offset, int64_t(ci));
        return false;
    }
    // rawBytes is the one header field the index does not seal: a RAW
    // chunk stores exactly its coded bytes, and no chunk may claim more
    // than its records can code to (bounds the inflate buffer).
    if ((codec_ == V3Codec::RAW && raw_bytes != payload_bytes) ||
        uint64_t(raw_bytes) >
            uint64_t(records) * wire::MAX_CODED_RECORD_BYTES) {
        fail(TraceError::Kind::BAD_CHUNK,
             "trace file '" + path_ + "' chunk " + std::to_string(ci) +
                 " declares " + std::to_string(raw_bytes) +
                 " coded bytes for " + std::to_string(payload_bytes) +
                 " stored bytes of " + std::to_string(records) +
                 " records",
             entry.offset, int64_t(ci));
        return false;
    }

    const uint8_t *payload =
        loadBytes(entry.offset + v3::CHUNK_HEADER_BYTES, payload_bytes,
                  ci);
    if (!payload)
        return false;
    if (wire::chunkChecksum(payload, payload_bytes) != sum) {
        fail(TraceError::Kind::BAD_CHECKSUM,
             "trace file '" + path_ + "' chunk " + std::to_string(ci) +
                 " payload failed its checksum",
             entry.offset + v3::CHUNK_HEADER_BYTES, int64_t(ci));
        return false;
    }

    const uint8_t *raw = payload;
    if (codec_ == V3Codec::ZLIB) {
#if defined(REPLAY_HAVE_ZLIB)
        // The stream must end exactly at rawBytes of output, with every
        // stored byte consumed.
        if (!inflater_)
            inflater_ = std::make_unique<Inflater>();
        z_stream &zs = inflater_->zs;
        rawBuf_.resize(raw_bytes);
        bool ok = inflater_->ready && inflateReset(&zs) == Z_OK;
        if (ok) {
            zs.next_in = const_cast<uint8_t *>(payload);
            zs.avail_in = payload_bytes;
            zs.next_out = rawBuf_.data();
            zs.avail_out = raw_bytes;
            ok = inflate(&zs, Z_FINISH) == Z_STREAM_END &&
                 zs.avail_out == 0 && zs.avail_in == 0;
        }
        if (!ok) {
            fail(TraceError::Kind::BAD_CHUNK,
                 "trace file '" + path_ + "' chunk " +
                     std::to_string(ci) + " does not inflate to " +
                     std::to_string(raw_bytes) + " bytes",
                 entry.offset, int64_t(ci));
            return false;
        }
        raw = rawBuf_.data();
#else
        fail(TraceError::Kind::BAD_CODEC,
             "trace file '" + path_ +
                 "' is zlib-compressed but this build has no zlib",
             entry.offset, int64_t(ci));
        return false;
#endif
    }

    DecodedChunk dc;
    dc.firstRecord = first_record;
    if (!pool_.empty()) {
        dc.recs = std::move(pool_.back());
        pool_.pop_back();
    }
    dc.recs.resize(records);
    if (!decoder_.decodeChunk(raw, raw_bytes, dc.recs.data(), records)) {
        pool_.push_back(std::move(dc.recs));
        fail(TraceError::Kind::BAD_CHUNK,
             "trace file '" + path_ + "' chunk " + std::to_string(ci) +
                 " payload is not " + std::to_string(records) +
                 " records in " + std::to_string(raw_bytes) + " bytes",
             entry.offset + v3::CHUNK_HEADER_BYTES, int64_t(ci));
        return false;
    }
    window_.push_back(std::move(dc));
    nextChunk_ = ci + 1;
    return true;
}

void
TraceV3Source::recycleFront()
{
    while (!window_.empty() &&
           window_.front().firstRecord + window_.front().recs.size() <=
               consumed_) {
        pool_.push_back(std::move(window_.front().recs));
        window_.erase(window_.begin());
    }
}

const TraceRecord *
TraceV3Source::locate(uint64_t rec)
{
    for (;;) {
        if (rec >= effTotal_)
            return nullptr;
        for (DecodedChunk &c : window_) {
            if (rec >= c.firstRecord &&
                rec < c.firstRecord + c.recs.size())
                return &c.recs[rec - c.firstRecord];
        }
        if (!loadNextChunk())
            return nullptr; // error clamped effTotal_, or index done
    }
}

const TraceRecord *
TraceV3Source::peek(unsigned ahead)
{
    panic_if(ahead >= LOOKAHEAD, "peek(%u) beyond lookahead", ahead);
    return locate(consumed_ + ahead);
}

void
TraceV3Source::advance()
{
    panic_if(locate(consumed_) == nullptr,
             "advance past end of v3 trace");
    ++consumed_;
    recycleFront();
}

bool
TraceV3Source::done()
{
    return locate(consumed_) == nullptr;
}

// --------------------------------------------------------------------
// Inspection
// --------------------------------------------------------------------

uint64_t
V3Info::payloadBytes() const
{
    uint64_t sum = 0;
    for (const Chunk &c : chunks)
        sum += c.payloadBytes;
    return sum;
}

uint64_t
V3Info::rawBytes() const
{
    uint64_t sum = 0;
    for (const Chunk &c : chunks)
        sum += c.rawBytes;
    return sum;
}

V3Info
inspectV3(const std::string &path)
{
    V3Info info;
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file) {
        info.error = TraceError::at(TraceError::Kind::OPEN_FAILED,
                                    "cannot open trace file '" + path +
                                        "'",
                                    path, 0);
        return info;
    }
    uint64_t file_bytes = 0;
    if (std::fseek(file, 0, SEEK_END) == 0) {
        const long end = std::ftell(file);
        if (end > 0)
            file_bytes = uint64_t(end);
    }
    auto readAt = [file](uint64_t offset, size_t len,
                         uint8_t *dst) -> bool {
        return std::fseek(file, long(offset), SEEK_SET) == 0 &&
               std::fread(dst, 1, len, file) == len;
    };
    Meta m = parseContainer(path, file_bytes, readAt);
    // The coded size is in each chunk header, not in the index.
    for (V3Info::Chunk &c : m.chunks) {
        uint8_t raw[4];
        if (!readAt(c.offset + v3::CHK_OFF_RAW_BYTES, sizeof(raw), raw)) {
            m.error = TraceError::at(TraceError::Kind::READ_ERROR,
                                     "cannot read a chunk header of '" +
                                         path + "'",
                                     path, c.offset);
            break;
        }
        c.rawBytes = wire::load32(raw);
    }
    std::fclose(file);

    info.error = m.error;
    info.fileBytes = m.fileBytes;
    info.recordBytes = m.recordBytes;
    info.recordCount = m.recordCount;
    info.codec = m.codec;
    info.chunkRecords = m.chunkRecords;
    info.indexOffset = m.indexOffset;
    info.dictEntries = uint32_t(m.dict.size());
    info.dictBytes = m.dict.storedBytes();
    info.chunks = std::move(m.chunks);
    return info;
}

} // namespace replay::trace
