/**
 * @file
 * Trace container bandwidth: the write (record) path per codec, and
 * ingest on the buffered and mmap read paths, raw and zlib codecs.
 *
 * MB/s is canonical record bytes (wire::recordWireBytes() per record)
 * per second, the definition perfgate's `trace_ingest_mbps` gates on
 * the raw mmap row; the stored and coded columns give the bytes per
 * record the container actually holds (chunk payloads plus the
 * instruction dictionary) and the chunk coder produces.
 * EXPERIMENTS.md carries a measured table.  Every row must deliver the
 * full stream (a short read is fatal).
 *
 * REPLAY_SIM_INSTS overrides the per-container record count.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "trace/chunk.hh"
#include "trace/tracer.hh"
#include "trace/tracev3.hh"
#include "trace/workload.hh"
#include "util/logging.hh"

using namespace replay;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Row
{
    std::string name;
    double recordsPerSec = 0;
    double mbPerSec = 0;        ///< canonical record bytes per second
    std::string path;           ///< the container written or read
};

/** Best of three timed passes of @p pass (pass 0 warms up). */
Row
bestOf(const std::string &name, uint64_t records, const std::string &path,
       const std::function<void()> &pass)
{
    Row row;
    row.name = name;
    row.path = path;
    for (int rep = 0; rep < 4; ++rep) {
        const double t0 = now();
        pass();
        const double dt = now() - t0;
        if (rep > 0 && dt > 0)
            row.recordsPerSec =
                std::max(row.recordsPerSec, double(records) / dt);
    }
    row.mbPerSec = row.recordsPerSec * trace::wire::recordWireBytes() / 1e6;
    return row;
}

/** Write @p recs to @p path with @p codec. */
Row
measureWrite(const std::string &name, const std::string &path,
             trace::V3Codec codec,
             const std::vector<trace::TraceRecord> &recs)
{
    return bestOf(name, recs.size(), path, [&] {
        trace::V3Options opts;
        opts.codec = codec;
        trace::TraceV3Writer writer(path, opts);
        for (const trace::TraceRecord &rec : recs)
            writer.write(rec);
        const trace::TraceError err = writer.close();
        fatal_if(!err.ok(), "%s: %s", name.c_str(), err.describe().c_str());
    });
}

/** Drain the container at @p path in full. */
Row
measureRead(const std::string &name, uint64_t records,
            const std::string &path, trace::V3SourceOptions opts)
{
    return bestOf(name, records, path, [&] {
        trace::TraceV3Source src(path, opts);
        while (!src.done())
            src.advance();
        fatal_if(src.consumed() != records,
                 "%s: delivered %llu of %llu records (%s)", name.c_str(),
                 (unsigned long long)src.consumed(),
                 (unsigned long long)records,
                 src.error().describe().c_str());
    });
}

} // namespace

int
main()
{
    uint64_t records = 200000;
    if (const char *env = std::getenv("REPLAY_SIM_INSTS"))
        records = std::strtoull(env, nullptr, 0);

    const auto &w = trace::findWorkload("crafty");
    const auto prog = w.buildProgram(0);
    // Named per process, so concurrent runs (an A/B of two builds)
    // never read each other's containers.
    const std::string stem =
        std::filesystem::temp_directory_path().string() +
        "/bench_ingest." + std::to_string(::getpid());
    const std::string raw_path = stem + ".raw.rpl3";
    const std::string zlib_path = stem + ".zlib.rpl3";

    std::printf("trace container bandwidth: %llu records of %s "
                "(%zu canonical bytes each)\n\n",
                (unsigned long long)records, w.name.c_str(),
                trace::wire::recordWireBytes());

    std::vector<trace::TraceRecord> recs;
    recs.reserve(records);
    trace::ExecutorTraceSource live(prog, records);
    for (; !live.done(); live.advance())
        recs.push_back(*live.peek());

    std::vector<Row> rows;
    rows.push_back(
        measureWrite("v3 raw write", raw_path, trace::V3Codec::RAW, recs));
    if (trace::v3ZlibAvailable())
        rows.push_back(measureWrite("v3 zlib write", zlib_path,
                                    trace::V3Codec::ZLIB, recs));
    trace::V3SourceOptions buffered;
    buffered.preferMmap = false;
    rows.push_back(
        measureRead("v3 raw buffered", records, raw_path, buffered));
    rows.push_back(measureRead("v3 raw mmap", records, raw_path, {}));
    if (trace::v3ZlibAvailable())
        rows.push_back(measureRead("v3 zlib mmap", records, zlib_path, {}));

    std::printf("%-18s %12s %9s %12s %9s %9s %6s\n", "path", "records/s",
                "MB/s", "container B", "stored/r", "coded/r", "dict");
    for (const Row &row : rows) {
        const trace::V3Info info = trace::inspectV3(row.path);
        fatal_if(!info.ok(), "%s: %s", row.name.c_str(),
                 info.error.describe().c_str());
        std::printf("%-18s %12.0f %9.1f %12llu %9.2f %9.2f %6u\n",
                    row.name.c_str(), row.recordsPerSec, row.mbPerSec,
                    (unsigned long long)info.fileBytes,
                    double(info.payloadBytes() + info.dictBytes) /
                        double(records),
                    double(info.rawBytes()) / double(records),
                    info.dictEntries);
    }

    for (const std::string &p : {raw_path, zlib_path}) {
        std::error_code ec;
        std::filesystem::remove(p, ec);
    }
    return 0;
}
