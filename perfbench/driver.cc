/**
 * @file
 * perfbench_driver — runs one benchmark workload and prints its
 * metrics.  Normally started by run.py, which builds it first:
 *
 *   perfbench_driver --workload paper-sweep --seed 0 --seconds 30 \
 *                    --trace 0
 *
 * --trace 0 measures the end-to-end metrics; --trace 1 adds one traced
 * pass and reports the per-layer metrics instead, writing its spans
 * under .bench_out/.  Both print every end-to-end metric in the text
 * lines.  The corpus of corpus-replay goes under .bench_tmp/; both
 * directories are relative to the working directory.  The last line of
 * standard output is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}.  The exit code is 0 only when every output
 * check passed.
 *
 * --print-pins <workload> prints the seed-0 pins for pins.cc.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"

using namespace perfbench;
using replay::sim::RunStats;

namespace {

const char *const kScratchDir = ".bench_tmp";
const char *const kSpansDir = ".bench_out";

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1\n"
                 "       perfbench_driver --print-pins NAME\n"
                 "workloads: paper-sweep ablation-fanout corpus-replay\n");
    return 2;
}

bool
parseU64(const char *text, uint64_t &out)
{
    if (!text || !*text)
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || *end || text[0] == '-')
        return false;
    out = v;
    return true;
}

double
peakRssMb()
{
    struct rusage ru
    {
    };
    ::getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;   // ru_maxrss is in KiB
}

void
printMetric(const Metric &m, const char *kind)
{
    std::printf("metric %-34s %.6g %s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), kind ? "  " : "", kind ? kind : "");
}

std::string
jsonResult(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    char buf[256];
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit.c_str());
        out += buf;
    }
    return out + "}}";
}

int
printPins(const Spec &spec)
{
    Setup setup(spec, 0, kScratchDir, 0);
    const SweepRun run = runUntraced(spec, setup);
    if (!run.error.empty()) {
        std::fprintf(stderr, "sweep failed: %s\n", run.error.c_str());
        return 1;
    }
    std::printf("    {\"%s\",\n     {0x%016llxULL,\n      {",
                spec.name.c_str(), (unsigned long long)run.digest);
    for (size_t i = 0; i < run.cells.size(); ++i) {
        std::printf("%s0x%016llxULL,", i % 3 ? " " : "\n       ",
                    (unsigned long long)run.cells[i].fingerprint());
    }
    std::printf("\n      }}},\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, pins_for;
    uint64_t seed = 0, seconds = 0, traced = 0;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (!val)
            return usage();
        ++i;
        if (arg == "--workload")
            workload = val;
        else if (arg == "--print-pins")
            pins_for = val;
        else if (arg == "--seed")
            have_seed = parseU64(val, seed);
        else if (arg == "--seconds")
            have_seconds = parseU64(val, seconds) && seconds > 0;
        else if (arg == "--trace")
            have_trace = parseU64(val, traced) && traced <= 1;
        else
            return usage();
    }

    // Each of these silently changes the measured program.
    for (const char *name : kForbiddenEnv) {
        if (std::getenv(name)) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set; it "
                         "changes the measured program\n",
                         name);
            return 2;
        }
    }

    std::filesystem::create_directories(kScratchDir);
    if (!pins_for.empty()) {
        const Spec *spec = findSpec(pins_for);
        return spec ? printPins(*spec) : usage();
    }
    const Spec *spec = findSpec(workload);
    if (!spec || !have_seed || !have_seconds || !have_trace)
        return usage();

    std::printf("perfbench: workload %s, seed %llu, %llu s, trace %llu\n",
                spec->name.c_str(), (unsigned long long)seed,
                (unsigned long long)seconds, (unsigned long long)traced);
    std::printf("perfbench: %s\n", buildAndHostLine().c_str());
    std::printf("perfbench: %zu rows x %zu columns, %llu x86 insts per "
                "hot-spot trace, %u sweep worker(s)%s\n",
                spec->rows.size(), spec->cols.size(),
                (unsigned long long)spec->instsPerTrace, kWorkers,
                spec->corpus ? ", traces from a v3 corpus" : "");

    // Set-up, repeated; the last one stays for the measurement.
    std::vector<double> setup_s;
    std::unique_ptr<Setup> setup;
    double setup_wall = 0;
    for (unsigned rep = 0;
         rep < kMinSetupReps ||
         (rep < kMaxSetupReps && setup_wall < kSetupWindowSeconds);
         ++rep) {
        setup.reset();
        try {
            setup = std::make_unique<Setup>(*spec, seed, kScratchDir, rep);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
            return 1;
        }
        setup_s.push_back(setup->cpuSeconds);
        setup_wall += setup->seconds;
        std::printf("setup %u: %.3f s CPU, %.3f s wall\n", rep + 1,
                    setup->cpuSeconds, setup->seconds);
    }

    // Timed sweeps until the measurement window is used up.
    const bool pinned = seed == 0 && spec->pins;
    const std::vector<uint64_t> *reference =
        pinned ? &spec->pins->cells : nullptr;
    std::vector<uint64_t> first_fps;
    std::vector<RunStats> reference_cells;
    std::vector<double> rates, walls;
    uint64_t attempted = 0, failed = 0;
    bool correct = true;
    const auto &grid = setup->cells();
    const int64_t deadline = nowNs() + int64_t(seconds) * 1000000000;
    unsigned sweep = 0;
    do {
        SweepRun run = runUntraced(*spec, *setup);
        ++sweep;
        attempted += run.tasks;
        if (!run.error.empty()) {
            std::printf("sweep %u: FAILED: %s\n", sweep, run.error.c_str());
            failed += run.tasks;
            correct = false;
            continue;
        }
        if (!reference) {
            for (const auto &c : run.cells)
                first_fps.push_back(c.fingerprint());
            reference = &first_fps;
        }
        unsigned bad = 0;
        for (size_t c = 0; c < run.cells.size(); ++c) {
            if (c >= reference->size() ||
                run.cells[c].fingerprint() != (*reference)[c]) {
                failed += grid[c].workload->numTraces;
                ++bad;
            }
        }
        if (spec->corpus && run.corpusHits != run.tasks) {
            failed += run.tasks - run.corpusHits;
            ++bad;
        }
        if (pinned && run.digest != spec->pins->digest)
            ++bad;
        correct = correct && bad == 0;
        if (reference_cells.empty())
            reference_cells = run.cells;
        rates.push_back(double(run.insts) / run.cpuSeconds / 1e6);
        walls.push_back(run.wallSeconds);
        std::printf("sweep %u: %.3f s CPU, %.3f s wall, %llu x86 insts, "
                    "%.3f Minsts/CPU-s, %.3f Minsts/s wall, "
                    "digest %016llx%s%s\n",
                    sweep, run.cpuSeconds, run.wallSeconds,
                    (unsigned long long)run.insts, rates.back(),
                    double(run.insts) / run.wallSeconds / 1e6,
                    (unsigned long long)run.digest,
                    spec->corpus ? (", corpus hits " +
                                    std::to_string(run.corpusHits) + "/" +
                                    std::to_string(run.tasks))
                                       .c_str()
                                 : "",
                    bad ? "  MISMATCH" : "");
    } while (nowNs() < deadline);

    if (pinned) {
        std::printf("check: seed-0 digest pinned at %016llx\n",
                    (unsigned long long)spec->pins->digest);
    }

    std::vector<Metric> layer;
    if (traced && !reference_cells.empty()) {
        const TracedPass pass = runTraced(*spec, *setup);
        attempted += pass.tasks.size();
        for (const auto &t : pass.tasks)
            failed += !t.error.empty();
        for (size_t c = 0; c < pass.cells.size(); ++c) {
            if (pass.cells[c].fingerprint() !=
                reference_cells[c].fingerprint())
                failed += grid[c].workload->numTraces;
        }
        for (const Check &check : reconcile(pass, reference_cells)) {
            std::printf("reconcile %-20s %s%s\n", check.name.c_str(),
                        check.ok ? "ok" : "FAILED: ",
                        check.ok ? "" : check.detail.c_str());
            correct = correct && check.ok;
        }
        layer = layerMetrics(*setup, pass, median(walls));

        std::filesystem::create_directories(kSpansDir);
        const std::string path = std::string(kSpansDir) + "/" +
                                 spec->name + ".seed" +
                                 std::to_string(seed) + "." +
                                 std::to_string(::getpid()) +
                                 ".spans.jsonl";
        std::ofstream(path) << spansJsonl(
            pass, *setup,
            spec->name + " seed " + std::to_string(seed) + "; " +
                buildAndHostLine());
        std::printf("spans: %s\n", path.c_str());
    }
    correct = correct && failed == 0 && !rates.empty();

    // The host metrics carry regression bounds; the simulated ones
    // repeat exactly for a seed but differ between seeds, so the JSON
    // carries them with the per-layer metrics of a traced run.
    std::vector<Metric> host, simulated;
    if (!rates.empty()) {
        host.push_back({"minsts_per_cpu_s", median(rates), "Minsts/cpu_s"});
        host.push_back({"setup_s", median(setup_s), "s"});
        host.push_back({"peak_rss_mb", peakRssMb(), "MB"});
        simulated = simulatedMetrics(reference_cells, grid);
    }
    std::printf("metric %-34s %.6g ratio  both (%llu of %llu tasks)\n",
                "failed_task_frac", double(failed) / double(attempted),
                (unsigned long long)failed, (unsigned long long)attempted);
    for (const Metric &m : host)
        printMetric(m, "host");
    for (const Metric &m : simulated)
        printMetric(m, "simulated");
    for (const Metric &m : layer)
        printMetric(m, nullptr);

    if (traced)
        layer.insert(layer.end(), simulated.begin(), simulated.end());
    std::printf("%s\n", jsonResult(correct, attempted, failed,
                                   traced ? layer : host)
                            .c_str());
    return correct ? 0 : 1;
}
