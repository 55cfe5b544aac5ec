/**
 * @file
 * The repository benchmark: three sweep workloads driven through the
 * public simulator API, an untraced measurement of the end-to-end
 * metrics, and a traced pass that times each layer's public calls from
 * the outside.  README.md in this directory defines every metric.
 *
 * Layers are reached only through their public headers: trace
 * (Workload::openTrace, TraceCorpus, TraceV3Writer), uop (Translator),
 * opt (PassObserver, Remapper), core and timing (through the RunStats
 * a Simulator returns), and sim (runSweep, gridCells, simulateTrace).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/sweep.hh"
#include "trace/corpus.hh"
#include "trace/workload.hh"

namespace perfbench {

/** x86 instructions per hot-spot trace (the repository default). */
inline constexpr uint64_t kInstsPerTrace = 400000;

/**
 * Set-up repetitions per run; setup_s is their median.  A run sets up
 * at least kMinSetupReps times and goes on, up to kMaxSetupReps, until
 * its set-ups have taken kSetupWindowSeconds of wall time: one set-up
 * of paper-sweep takes well under 0.1 s, and the median of three such
 * short timings moved by 30% between runs of one seed.
 */
inline constexpr unsigned kMinSetupReps = 3;
inline constexpr unsigned kMaxSetupReps = 15;
inline constexpr double kSetupWindowSeconds = 1.0;

/**
 * Worker threads of every sweep, traced pass and corpus recording, as
 * replaybench uses on a 4-core host.  Sweeps are timed in process CPU
 * time, so the worker count does not put the scheduler into the
 * figure; with one worker, sweeps of one input still moved by 25%
 * within a run, as much as with four, and a run held four times fewer
 * of them.
 */
inline constexpr unsigned kWorkers = 4;

/** Environment variables that silently change the measured program. */
inline constexpr const char *kForbiddenEnv[] = {
    "REPLAY_SIM_INSTS", "REPLAY_SIM_JOBS", "REPLAY_STATIC_CHECK",
    "REPLAY_TRACEV3_NO_MMAP"};

/** Grid column labels the benchmark knows, as metric-name parts. */
inline constexpr const char *kColumnLabels[] = {
    "IC", "TC", "RP", "RPO", "no_ASST", "no_CP", "no_CSE", "no_NOP",
    "no_RA", "no_SF"};

/** One grid column: a label and the machine it simulates. */
struct Column
{
    std::string label;
    replay::sim::SimConfig cfg;
};

/** Seed-0 sweep digest and per-cell fingerprints, row-major (pins.cc). */
struct SeedZeroPins
{
    uint64_t digest = 0;
    std::vector<uint64_t> cells;
};

/** One benchmark workload: a (rows x columns) sweep grid. */
struct Spec
{
    std::string name;
    std::vector<std::string> rows;  ///< Table-1 application names
    std::vector<Column> cols;
    bool corpus = false;            ///< replay every trace from a v3 corpus
    uint64_t instsPerTrace = kInstsPerTrace;
    const SeedZeroPins *pins = nullptr;     ///< null = unpinned
};

/** The pins of workload @p name, or null if it has none. */
const SeedZeroPins *seedZeroPins(const std::string &name);

/** paper-sweep, ablation-fanout or corpus-replay; null otherwise. */
const Spec *findSpec(const std::string &name);

/**
 * The rows of @p spec as workloads.  Seed 0 keeps the Table-1
 * personalities; any other seed perturbs every Personality::seed, which
 * gives held-out programs with the same statistical knobs.
 */
std::vector<replay::trace::Workload> makeWorkloads(const Spec &spec,
                                                   uint64_t seed);

/** Monotonic nanoseconds (steady_clock). */
int64_t nowNs();

/**
 * CPU nanoseconds of the whole process: every thread, exited ones
 * included (CLOCK_PROCESS_CPUTIME_ID).  On a virtual machine whose
 * kernel accounts steal time, the time the host takes a vCPU away is
 * left out, so a busy neighbour does not show as a slower program.
 */
int64_t cpuNs();

/** A directory removed, with everything in it, on destruction. */
struct ScratchDir
{
    std::string path;

    ScratchDir() = default;
    ~ScratchDir();
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;
};

/**
 * Everything a sweep needs before its clock starts: the workloads, the
 * grid, the recorded corpus (corpus-replay only) and one untimed
 * warm-up task.  The corpus lives in a directory named after the
 * workload, the process id and @p rep, and is removed with the Setup.
 */
class Setup
{
  public:
    Setup(const Spec &spec, uint64_t seed, const std::string &scratch_dir,
          unsigned rep);
    Setup(const Setup &) = delete;
    Setup &operator=(const Setup &) = delete;

    const std::vector<replay::sim::SweepCell> &cells() const
    {
        return cells_;
    }
    const std::vector<replay::trace::Workload> &workloads() const
    {
        return workloads_;
    }
    /** Null unless the spec replays a corpus. */
    const replay::trace::TraceCorpus *corpus() const
    {
        return spec_.corpus ? &corpus_ : nullptr;
    }

    double seconds = 0;             ///< wall time of the whole set-up
    double cpuSeconds = 0;          ///< process CPU time of the set-up
    int64_t recordSynthNs = 0;      ///< corpus recording: synthesis
    uint64_t recordRecords = 0;     ///< corpus recording: records drained

  private:
    void recordCorpus(const std::string &scratch_dir, unsigned rep);

    const Spec &spec_;
    std::vector<replay::trace::Workload> workloads_;
    std::vector<replay::sim::SweepCell> cells_;
    ScratchDir corpusDir_;
    replay::trace::TraceCorpus corpus_;
};

/** One timed runSweep call (no warm-up task) and its outcome. */
struct SweepRun
{
    double wallSeconds = 0;
    double cpuSeconds = 0;          ///< process CPU time of runSweep
    uint64_t insts = 0;
    unsigned tasks = 0;
    unsigned corpusHits = 0;
    unsigned corpusMisses = 0;
    uint64_t digest = 0;            ///< SweepResult::digest()
    std::vector<replay::sim::RunStats> cells;
    std::string error;              ///< non-empty if the sweep threw
};

SweepRun runUntraced(const Spec &spec, const Setup &setup);

/** A named metric value. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** The simulated end-to-end metrics over the RPO cells. */
std::vector<Metric> simulatedMetrics(
    const std::vector<replay::sim::RunStats> &cells,
    const std::vector<replay::sim::SweepCell> &grid);

/**
 * One span: a timed call into a layer, from the benchmark's side.  A
 * span with calls > 1 aggregates that many calls: its duration is their
 * summed time and its start is its parent's start.
 */
struct Span
{
    uint32_t id = 0;                ///< 1-based within its task
    uint32_t parent = 0;            ///< 0 = root
    std::string name;
    int64_t start = 0;
    int64_t end = 0;
    uint64_t calls = 1;
};

/** Observer-timed optimizer work inside one Simulator::run. */
struct OptTimes
{
    uint64_t frames = 0;            ///< optimize() calls
    uint64_t passthroughFrames = 0; ///< passthrough() calls (RP path)
    int64_t optNs = 0;              ///< optimize(), remap included
    int64_t remapNs = 0;
    int64_t passNs[replay::opt::NUM_PASS_IDS] = {};
    int64_t finalizeNs = 0;
    int64_t passthroughNs = 0;
    int64_t benchNs = 0;            ///< the observer's own replay work
    uint64_t inUops = 0;
    uint64_t outUops = 0;
    uint64_t remapMismatches = 0;   ///< replayed remap != observed one

    void merge(const OptTimes &o);
};

/** One (cell, trace) task of the traced pass, or a reference run. */
struct TaskTrace
{
    int cell = -1;                  ///< grid cell, -1 for a reference run
    unsigned row = 0;
    unsigned trace = 0;
    std::string column;
    bool ingest = false;            ///< records came from the corpus
    bool optimizes = false;         ///< the column runs the optimizer
    int64_t start = 0, end = 0;
    int64_t openNs = 0;             ///< opening the record source
    int64_t runNs = 0;              ///< the whole Simulator::run call
    int64_t pullNs = 0;             ///< records pulled during the run
    int64_t translateNs = 0;        ///< the translate replay (benchmark)
    uint64_t blocks = 0;            ///< record pulls
    uint64_t records = 0;
    uint64_t uops = 0;
    OptTimes opt;
    replay::sim::RunStats stats;
    std::vector<Span> spans;        ///< ids local to the task
    std::string error;

    /** Trace-layer time: opening the source and pulling its records. */
    int64_t traceNs() const { return openNs + pullNs; }

    /** The simulator's own time: the run minus everything inside it
     *  that is timed separately. */
    int64_t
    simNs() const
    {
        return runNs - pullNs - translateNs - opt.benchNs;
    }

    /** Program time: the task minus the benchmark's own replays. */
    int64_t
    programNs() const
    {
        return end - start - translateNs - opt.benchNs;
    }
};

/** Result of one traced pass over the grid (plus reference runs). */
struct TracedPass
{
    std::vector<TaskTrace> tasks;
    std::vector<replay::sim::RunStats> cells;   ///< merged grid cells
    double gridWallSeconds = 0;     ///< wall of the grid tasks alone
    bool observerKept = true;       ///< our observer factory stayed put
};

/**
 * Run every grid task traced, then a reference IC / TC / RP run for
 * every (row, trace) whose grid lacks that column, so the derived
 * column differences always come from the same task set.  Installs the
 * benchmark's opt::PassObserver factory for the pass's duration.
 */
TracedPass runTraced(const Spec &spec, const Setup &setup);

/** A failed reconciliation check, or none. */
struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

/**
 * The traced pass's reconciliation checks: observer frame and uop
 * counts against RunStats, identical task sets behind every derived
 * column difference, span self times against task time, and traced
 * cell fingerprints against @p untraced.
 */
std::vector<Check> reconcile(const TracedPass &pass,
                             const std::vector<replay::sim::RunStats>
                                 &untraced);

/** The per-layer metrics of a traced pass. */
std::vector<Metric> layerMetrics(const Setup &setup, const TracedPass &pass,
                                 double untraced_wall_seconds);

/** Median of @p v (v must be non-empty). */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile @p pct (0..100) of @p v (non-empty).  The
 * tail percentile reported is the highest whole one that leaves at
 * least ten samples above it: tailPercentile(n).
 */
double percentile(std::vector<double> v, double pct);
unsigned tailPercentile(size_t samples);

/** "Release, GNU 12.2.0, nproc 4, host <name>". */
std::string buildAndHostLine();

/** Spans of @p pass as JSON lines, one object each. */
std::string spansJsonl(const TracedPass &pass, const Setup &setup,
                       const std::string &header);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
