#include "bench.hh"

#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "opt/optimizer.hh"
#include "opt/remapper.hh"
#include "trace/chunk.hh"
#include "trace/tracev3.hh"
#include "uop/translator.hh"
#include "util/threadpool.hh"

namespace perfbench {

using namespace replay;
using sim::Machine;
using sim::RunStats;
using sim::SimConfig;

namespace {

std::vector<std::string>
table1Rows()
{
    std::vector<std::string> rows;
    for (const auto &w : trace::standardWorkloads())
        rows.push_back(w.name);
    return rows;
}

std::vector<Spec>
makeSpecs()
{
    std::vector<Spec> out;

    // Figure 6: every application on the four machines.
    Spec paper;
    paper.name = "paper-sweep";
    paper.rows = table1Rows();
    for (const auto &[label, cfg] : sim::allMachineColumns())
        paper.cols.push_back({label, cfg});
    out.push_back(std::move(paper));

    // Figure 10: five applications under RP, RPO and RPO with one pass
    // removed at a time.
    Spec ablation;
    ablation.name = "ablation-fanout";
    ablation.rows = {"bzip2", "crafty", "vortex", "dream", "excel"};
    ablation.cols = {{"RP", SimConfig::make(Machine::RP)},
                     {"RPO", SimConfig::make(Machine::RPO)}};
    for (const char *pass : {"ASST", "CP", "CSE", "NOP", "RA", "SF"}) {
        auto cfg = SimConfig::make(Machine::RPO);
        cfg.engine.optConfig = opt::OptConfig::without(pass);
        ablation.cols.push_back({std::string("no ") + pass, cfg});
    }
    out.push_back(std::move(ablation));

    // Coverage grid: RPO only, every trace replayed from a v3 corpus.
    // Half the default budget per trace: set-up records and compresses
    // the whole corpus three times per run, which at 400k instructions
    // takes about 8 s each time.
    Spec corpus;
    corpus.name = "corpus-replay";
    corpus.rows = table1Rows();
    corpus.cols = {{"RPO", SimConfig::make(Machine::RPO)}};
    corpus.corpus = true;
    corpus.instsPerTrace = kInstsPerTrace / 2;
    out.push_back(std::move(corpus));

    for (Spec &s : out)
        s.pins = seedZeroPins(s.name);
    return out;
}

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** The record source a sweep task would read: the corpus or synthesis. */
std::unique_ptr<trace::TraceSource>
openTask(const sim::SweepCell &cell, unsigned trace_idx,
         const trace::TraceCorpus *corpus, uint64_t insts, bool &ingest)
{
    ingest = false;
    if (corpus) {
        if (const trace::CorpusEntry *entry =
                corpus->find(cell.workload->name, trace_idx, insts)) {
            trace::TraceError err;
            auto src = corpus->open(*entry, insts, &err);
            if (!src)
                throw std::runtime_error("corpus trace '" + entry->id +
                                         "': " + err.describe());
            ingest = true;
            return src;
        }
        throw std::runtime_error("corpus miss for " + cell.workload->name +
                                 "." + std::to_string(trace_idx));
    }
    return cell.workload->openTrace(trace_idx, insts);
}

std::vector<trace::TraceRecord>
drain(trace::TraceSource &src, uint64_t reserve)
{
    std::vector<trace::TraceRecord> records;
    records.reserve(reserve);
    while (const trace::TraceRecord *rec = src.peek()) {
        records.push_back(*rec);
        src.advance();
    }
    return records;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** (cell, trace) tasks in @p cells. */
unsigned
countTasks(const std::vector<sim::SweepCell> &cells)
{
    unsigned n = 0;
    for (const auto &c : cells)
        n += c.workload->numTraces;
    return n;
}

/** "no ASST" -> "no_ASST": grid labels as metric-name components. */
std::string
metricLabel(std::string label)
{
    std::replace(label.begin(), label.end(), ' ', '_');
    return label;
}

} // namespace

const Spec *
findSpec(const std::string &name)
{
    static const std::vector<Spec> all = makeSpecs();
    for (const Spec &s : all)
        if (s.name == name)
            return &s;
    return nullptr;
}

std::vector<trace::Workload>
makeWorkloads(const Spec &spec, uint64_t seed)
{
    std::vector<trace::Workload> out;
    for (const std::string &row : spec.rows) {
        trace::Workload w = trace::findWorkload(row);
        if (seed != 0)
            w.personality.seed += splitmix64(seed);
        out.push_back(std::move(w));
    }
    return out;
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int64_t
cpuNs()
{
    struct timespec ts
    {
    };
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return int64_t(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

ScratchDir::~ScratchDir()
{
    if (!path.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
}

Setup::Setup(const Spec &spec, uint64_t seed,
             const std::string &scratch_dir, unsigned rep)
    : spec_(spec)
{
    const int64_t t0 = nowNs();
    const int64_t c0 = cpuNs();

    workloads_ = makeWorkloads(spec, seed);
    std::vector<const trace::Workload *> rows;
    for (const auto &w : workloads_)
        rows.push_back(&w);
    std::vector<std::pair<std::string, SimConfig>> cols;
    for (const Column &c : spec.cols)
        cols.emplace_back(c.label, c.cfg);
    cells_ = sim::gridCells(rows, cols);

    if (spec.corpus)
        recordCorpus(scratch_dir, rep);

    // The untimed warm-up task SweepOptions::warmup would run: the
    // first (cell, trace) pair, through the same public calls.
    bool ingest = false;
    auto src = openTask(cells_.front(), 0, corpus(), spec.instsPerTrace,
                        ingest);
    (void)sim::simulateTrace(cells_.front().cfg, *src,
                             cells_.front().workload->name);

    seconds = double(nowNs() - t0) / 1e9;
    cpuSeconds = double(cpuNs() - c0) / 1e9;
}

void
Setup::recordCorpus(const std::string &scratch_dir, unsigned rep)
{
    corpusDir_.path = scratch_dir + "/" + spec_.name + "." +
                      std::to_string(::getpid()) + "." +
                      std::to_string(rep);
    std::filesystem::create_directories(corpusDir_.path);

    // Record every (row, hot spot) with the default codec and pin it by
    // the synthesizer's stream digest, kWorkers at a time.
    std::vector<trace::CorpusEntry> entries;
    std::vector<const trace::Workload *> owners;
    for (const auto &w : workloads_) {
        for (unsigned t = 0; t < w.numTraces; ++t) {
            trace::CorpusEntry entry;
            entry.id = w.name + "." + std::to_string(t);
            entry.workload = w.name;
            entry.traceIdx = t;
            entry.file = entry.id + ".rpl3";
            entries.push_back(std::move(entry));
            owners.push_back(&w);
        }
    }
    std::vector<int64_t> synth_ns(entries.size(), 0);
    parallelFor(kWorkers, entries.size(), [&](size_t i) {
        trace::CorpusEntry &entry = entries[i];
        const int64_t s0 = nowNs();
        auto src = owners[i]->openTrace(entry.traceIdx, spec_.instsPerTrace);
        auto records = drain(*src, spec_.instsPerTrace);
        synth_ns[i] = nowNs() - s0;

        trace::TraceV3Writer writer(corpusDir_.path + "/" + entry.file);
        for (const auto &rec : records)
            writer.write(rec);
        const trace::TraceError err = writer.close();
        if (!err.ok())
            throw std::runtime_error(err.describe());
        entry.records = writer.written();
        trace::VectorTraceSource authoritative(std::move(records));
        entry.digest = trace::wire::streamDigest(authoritative);
    });
    for (size_t i = 0; i < entries.size(); ++i) {
        recordSynthNs += synth_ns[i];
        recordRecords += entries[i].records;
    }

    // Write the manifest, load it back, and prove every container
    // replays the stream it pins.
    const std::string manifest = corpusDir_.path + "/corpus.json";
    const trace::TraceError err =
        trace::writeCorpusManifest(manifest, entries);
    if (!err.ok())
        throw std::runtime_error(err.describe());
    corpus_ = trace::TraceCorpus::load(manifest);
    if (!corpus_.ok())
        throw std::runtime_error(corpus_.error().describe());
    const auto &loaded = corpus_.entries();
    parallelFor(kWorkers, loaded.size(), [&](size_t i) {
        trace::TraceError open_err;
        auto src = corpus_.open(loaded[i], spec_.instsPerTrace, &open_err);
        if (!src)
            throw std::runtime_error(open_err.describe());
        if (trace::wire::streamDigest(*src) != loaded[i].digest)
            throw std::runtime_error("corpus entry " + loaded[i].id +
                                     " does not replay its pinned stream");
    });
}

SweepRun
runUntraced(const Spec &spec, const Setup &setup)
{
    sim::SweepOptions opts;
    opts.jobs = kWorkers;
    opts.instsPerTrace = spec.instsPerTrace;
    opts.warmup = false;            // Setup already ran the warm-up task
    opts.corpus = setup.corpus();

    SweepRun run;
    run.tasks = countTasks(setup.cells());
    try {
        const int64_t c0 = cpuNs();
        auto result = sim::runSweep(setup.cells(), opts);
        run.cpuSeconds = double(cpuNs() - c0) / 1e9;
        run.wallSeconds = result.wallSeconds;
        run.insts = result.totalInsts();
        run.corpusHits = result.corpusHits;
        run.corpusMisses = result.corpusMisses;
        run.digest = result.digest();
        run.cells = std::move(result.cells);
    } catch (const std::exception &e) {
        run.error = e.what();
    }
    return run;
}

std::vector<Metric>
simulatedMetrics(const std::vector<RunStats> &cells,
                 const std::vector<sim::SweepCell> &grid)
{
    double ipc_sum = 0;
    unsigned n = 0;
    RunStats pooled;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (grid[i].label != "RPO")
            continue;
        ipc_sum += cells[i].ipc();
        pooled.merge(cells[i]);
        ++n;
    }
    return {{"sim_ipc_rpo", ratio(ipc_sum, n), "inst/cycle"},
            {"sim_uops_removed_frac", pooled.uopReduction(), "ratio"},
            {"sim_coverage", pooled.coverage(), "ratio"}};
}

// ---------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------

void
OptTimes::merge(const OptTimes &o)
{
    frames += o.frames;
    passthroughFrames += o.passthroughFrames;
    optNs += o.optNs;
    remapNs += o.remapNs;
    for (unsigned p = 0; p < opt::NUM_PASS_IDS; ++p)
        passNs[p] += o.passNs[p];
    finalizeNs += o.finalizeNs;
    passthroughNs += o.passthroughNs;
    benchNs += o.benchNs;
    inUops += o.inUops;
    outUops += o.outUops;
    remapMismatches += o.remapMismatches;
}

namespace {

/** The task whose Simulator::run this thread is inside, if any. */
thread_local OptTimes *t_optTimes = nullptr;

/**
 * Times one optimize() or passthrough() call from inside the engine.
 * The optimizer builds the observer after remapping, so the remap is
 * not between two callbacks; onRemapped replays it on the same uops
 * (the Remapper is stateless) and the replay's whole cost, rebuilding
 * its input included, is booked as benchmark work, not program work.
 */
class TimingObserver final : public opt::PassObserver
{
  public:
    TimingObserver(OptTimes &out, bool per_block_exits)
        : out_(out), perBlock_(per_block_exits), start_(nowNs()),
          prev_(start_)
    {
    }

    void
    onRemapped(const opt::OptBuffer &buf) override
    {
        const int64_t enter = nowNs();
        thread_local std::vector<uop::Uop> uops;
        thread_local std::vector<uint16_t> blocks;
        thread_local opt::OptBuffer replay;
        uops.clear();
        blocks.clear();
        for (size_t i = 0; i < buf.size(); ++i) {
            uops.push_back(buf.code().get(i));
            blocks.push_back(buf.blockPlane()[i]);
        }
        const int64_t r0 = nowNs();
        opt::Remapper().remap(uops, blocks, perBlock_, replay);
        remapNs_ = nowNs() - r0;
        mismatch_ = replay.size() != buf.size() ||
                    replay.exits().size() != buf.exits().size();
        inUops_ = buf.size();
        prev_ = nowNs();
        benchNs_ = prev_ - enter;
    }

    void
    onPass(opt::PassId pass, unsigned, const opt::OptBuffer &) override
    {
        const int64_t t = nowNs();
        passNs_[unsigned(pass)] += t - prev_;
        prev_ = t;
        sawPass_ = true;
    }

    void
    onFinalized(const opt::OptimizedFrame &frame) override
    {
        const int64_t t = nowNs();
        // Program time of the call: the observed interval less the
        // replay, plus the replayed remap that stands for the real one
        // (which ran just before this observer was built).
        const int64_t program = t - start_ - benchNs_ + remapNs_;
        out_.benchNs += benchNs_;
        out_.remapMismatches += mismatch_;
        if (!sawPass_) {
            ++out_.passthroughFrames;
            out_.passthroughNs += program;
            return;
        }
        ++out_.frames;
        out_.optNs += program;
        out_.remapNs += remapNs_;
        for (unsigned p = 0; p < opt::NUM_PASS_IDS; ++p)
            out_.passNs[p] += passNs_[p];
        out_.finalizeNs += t - prev_;
        out_.inUops += inUops_;
        out_.outUops += frame.size();
    }

  private:
    OptTimes &out_;
    bool perBlock_;
    int64_t start_;
    int64_t prev_;
    int64_t remapNs_ = 0;
    int64_t benchNs_ = 0;
    int64_t passNs_[opt::NUM_PASS_IDS] = {};
    uint64_t inUops_ = 0;
    bool sawPass_ = false;
    bool mismatch_ = false;
};

std::unique_ptr<opt::PassObserver>
makeTimingObserver(const opt::OptConfig &cfg, const opt::AliasHints *)
{
    if (!t_optTimes)
        return nullptr;
    return std::make_unique<TimingObserver>(
        *t_optTimes, cfg.scope != opt::Scope::FRAME);
}

/** Installs the timing observer factory; restores the previous one. */
class ObserverInstall
{
  public:
    ObserverInstall() : prev_(opt::passObserverFactory())
    {
        opt::setPassObserverFactory(&makeTimingObserver);
    }
    ~ObserverInstall() { opt::setPassObserverFactory(prev_); }
    ObserverInstall(const ObserverInstall &) = delete;
    ObserverInstall &operator=(const ObserverInstall &) = delete;

    bool intact() const
    {
        return opt::passObserverFactory() == &makeTimingObserver;
    }

  private:
    opt::PassObserverFactory prev_;
};

/** A task to trace: the cell (grid or reference) and its hot spot. */
struct TaskPlan
{
    const sim::SweepCell *cell;
    int gridCell;
    unsigned row;
    unsigned trace;
};

/**
 * The record source the traced Simulator::run reads: it pulls records
 * from the task's real source in blocks, timing each pull as trace-layer
 * work, and decodes each new block once more with a uop::Translator
 * (stateless, so the replay costs what the simulator's own translate
 * calls cost).  Records sit in a ring like the executor's own, so the
 * simulator works on cache-resident records as it does untraced; a
 * slot is refilled only LOOKAHEAD records after it was consumed.
 */
class TimedSource final : public trace::TraceSource
{
  public:
    TimedSource(trace::TraceSource &inner, TaskTrace &tt)
        : inner_(inner), tt_(tt), ring_(kRing)
    {
    }

    const trace::TraceRecord *
    peek(unsigned ahead = 0) override
    {
        if (ahead >= count_ && !exhausted_)
            refill();
        return ahead < count_ ? &ring_[(head_ + ahead) % kRing] : nullptr;
    }

    void
    advance() override
    {
        head_ = (head_ + 1) % kRing;
        --count_;
        ++consumed_;
    }

    bool done() override { return peek() == nullptr; }
    uint64_t consumed() const override { return consumed_; }

  private:
    static constexpr size_t kRing = 4096;

    void
    refill()
    {
        const size_t first = count_;
        const int64_t t0 = nowNs();
        while (count_ < kRing - LOOKAHEAD) {
            const trace::TraceRecord *rec = inner_.peek();
            if (!rec) {
                exhausted_ = true;
                break;
            }
            ring_[(head_ + count_) % kRing] = *rec;
            inner_.advance();
            ++count_;
        }
        const int64_t t1 = nowNs();
        for (size_t i = first; i < count_; ++i) {
            const trace::TraceRecord &rec = ring_[(head_ + i) % kRing];
            flow_.clear();
            tt_.uops += translator_.translate(rec.inst, rec.pc,
                                              rec.pc + rec.length, flow_);
        }
        const int64_t t2 = nowNs();
        tt_.pullNs += t1 - t0;
        tt_.translateNs += t2 - t1;
        tt_.records += count_ - first;
        ++tt_.blocks;
    }

    trace::TraceSource &inner_;
    TaskTrace &tt_;
    std::vector<trace::TraceRecord> ring_;
    size_t head_ = 0;
    size_t count_ = 0;
    uint64_t consumed_ = 0;
    bool exhausted_ = false;
    uop::Translator translator_;
    std::vector<uop::Uop> flow_;
};

/** Run one task through the layers' public calls, recording spans. */
void
traceTask(const TaskPlan &plan, const Spec &spec,
          const trace::TraceCorpus *corpus, TaskTrace &tt)
{
    tt.cell = plan.gridCell;
    tt.row = plan.row;
    tt.trace = plan.trace;
    tt.column = plan.cell->label;
    tt.optimizes =
        plan.cell->cfg.usesFrames() && plan.cell->cfg.engine.optimize;

    tt.start = nowNs();
    int64_t run_start = tt.start;
    try {
        auto src = openTask(*plan.cell, plan.trace, corpus,
                            spec.instsPerTrace, tt.ingest);
        run_start = nowNs();
        tt.openNs = run_start - tt.start;
        TimedSource timed(*src, tt);
        t_optTimes = &tt.opt;
        try {
            tt.stats = sim::simulateTrace(plan.cell->cfg, timed,
                                          plan.cell->workload->name);
        } catch (...) {
            t_optTimes = nullptr;
            throw;
        }
        t_optTimes = nullptr;
        tt.end = nowNs();
        tt.runNs = tt.end - run_start;
    } catch (const std::exception &e) {
        tt.end = nowNs();
        tt.error = e.what();
        return;
    }

    // Spans: the task, opening its record source, and the simulator
    // run.  Inside the run the calls number in the thousands (record
    // pulls, translate replays, optimizer calls), so each kind is one
    // aggregate span: calls > 1, duration = the calls' summed time,
    // start = the parent's start.
    auto add = [&](uint32_t parent, std::string name, int64_t start,
                   int64_t dur, uint64_t calls) {
        const auto id = uint32_t(tt.spans.size() + 1);
        tt.spans.push_back({id, parent, std::move(name), start,
                            start + dur, calls});
        return id;
    };
    const char *layer = tt.ingest ? "trace.ingest" : "trace.synth";
    const uint32_t root = add(0, "task", tt.start, tt.end - tt.start, 1);
    add(root, std::string(layer) + ".open", tt.start, tt.openNs, 1);
    const uint32_t run = add(root, "sim.run." + metricLabel(tt.column),
                             run_start, tt.runNs, 1);
    add(run, layer, run_start, tt.pullNs, tt.blocks);
    add(run, "uop.translate", run_start, tt.translateNs, tt.blocks);
    const OptTimes &o = tt.opt;
    if (o.frames) {
        const uint32_t optimize =
            add(run, "opt.optimize", run_start, o.optNs, o.frames);
        add(optimize, "opt.remap", run_start, o.remapNs, o.frames);
        for (unsigned p = 0; p < opt::NUM_PASS_IDS; ++p) {
            add(optimize,
                std::string("opt.pass.") +
                    opt::passIdName(static_cast<opt::PassId>(p)),
                run_start, o.passNs[p], o.frames);
        }
        add(optimize, "opt.finalize", run_start, o.finalizeNs, o.frames);
    }
    if (o.passthroughFrames) {
        add(run, "opt.passthrough", run_start, o.passthroughNs,
            o.passthroughFrames);
    }
    if (o.frames + o.passthroughFrames) {
        add(run, "bench.observer_replay", run_start, o.benchNs,
            o.frames + o.passthroughFrames);
    }
}

const char *const kReferenceColumns[] = {"IC", "TC", "RP"};

} // namespace

TracedPass
runTraced(const Spec &spec, const Setup &setup)
{
    const auto &grid = setup.cells();
    const size_t ncols = spec.cols.size();

    std::vector<TaskPlan> plans;
    for (size_t c = 0; c < grid.size(); ++c) {
        for (unsigned t = 0; t < grid[c].workload->numTraces; ++t)
            plans.push_back({&grid[c], int(c), unsigned(c / ncols), t});
    }
    const size_t num_grid = plans.size();

    // Reference runs: IC, TC and RP over every (row, hot spot) whose
    // grid lacks that column.
    std::vector<sim::SweepCell> refs;
    refs.reserve(std::size(kReferenceColumns) * setup.workloads().size());
    for (const char *col : kReferenceColumns) {
        bool in_grid = false;
        for (const Column &c : spec.cols)
            in_grid = in_grid || c.label == col;
        if (in_grid)
            continue;
        const Machine m = std::string(col) == "IC"   ? Machine::IC
                          : std::string(col) == "TC" ? Machine::TC
                                                     : Machine::RP;
        for (const auto &w : setup.workloads())
            refs.push_back({&w, col, SimConfig::make(m)});
    }
    for (const auto &ref : refs) {
        const auto row = unsigned(ref.workload - setup.workloads().data());
        for (unsigned t = 0; t < ref.workload->numTraces; ++t)
            plans.push_back({&ref, -1, row, t});
    }

    TracedPass pass;
    pass.tasks.resize(plans.size());
    {
        ObserverInstall install;
        const int64_t g0 = nowNs();
        parallelFor(kWorkers, num_grid, [&](size_t i) {
            traceTask(plans[i], spec, setup.corpus(), pass.tasks[i]);
        });
        pass.gridWallSeconds = double(nowNs() - g0) / 1e9;
        parallelFor(kWorkers, plans.size() - num_grid, [&](size_t i) {
            traceTask(plans[num_grid + i], spec, setup.corpus(),
                      pass.tasks[num_grid + i]);
        });
        pass.observerKept = install.intact();
    }

    // Merge grid tasks into cells exactly as runSweep does.
    pass.cells.resize(grid.size());
    for (size_t c = 0; c < grid.size(); ++c) {
        pass.cells[c].workload = grid[c].workload->name;
        pass.cells[c].config = grid[c].label;
    }
    for (size_t i = 0; i < num_grid; ++i)
        pass.cells[size_t(pass.tasks[i].cell)].merge(pass.tasks[i].stats);
    return pass;
}

std::vector<Check>
reconcile(const TracedPass &pass, const std::vector<RunStats> &untraced)
{
    std::vector<Check> checks;
    auto check = [&](std::string name, bool ok, std::string detail) {
        checks.push_back({std::move(name), ok, std::move(detail)});
    };

    unsigned errors = 0;
    for (const auto &t : pass.tasks)
        errors += !t.error.empty();
    check("tasks_completed", errors == 0,
          std::to_string(errors) + " task(s) threw");
    check("observer_installed", pass.observerKept,
          "the pass observer factory was replaced during the pass");

    // Observer counts against the optimizer's own RunStats counters.
    uint64_t obs_frames = 0, stat_frames = 0;
    uint64_t obs_in = 0, obs_out = 0;
    opt::OptStats pooled;
    unsigned frame_mismatch = 0, mismatched_remaps = 0;
    for (const auto &t : pass.tasks) {
        obs_frames += t.opt.frames;
        stat_frames += t.stats.optStats.framesOptimized;
        frame_mismatch +=
            t.opt.frames != t.stats.optStats.framesOptimized;
        obs_in += t.opt.inUops;
        obs_out += t.opt.outUops;
        pooled.merge(t.stats.optStats);
        mismatched_remaps += t.opt.remapMismatches != 0;
    }
    check("opt_frames", frame_mismatch == 0 && obs_frames == stat_frames,
          "observer saw " + std::to_string(obs_frames) +
              " optimize() calls, RunStats counts " +
              std::to_string(stat_frames));
    const double obs_removed =
        obs_in ? double(obs_in - obs_out) / double(obs_in) : 0.0;
    check("opt_uops_removed",
          obs_in == pooled.inputUops && obs_out == pooled.outputUops &&
              std::fabs(obs_removed - pooled.uopReduction()) < 1e-12,
          "observer " + std::to_string(obs_removed) + " vs OptStats " +
              std::to_string(pooled.uopReduction()));
    check("opt_remap_replay", mismatched_remaps == 0,
          std::to_string(mismatched_remaps) +
              " task(s) where the replayed remap differs");

    // Derived differences (RP - IC, TC - IC) need IC, TC and RP runs
    // over exactly the same (row, hot spot) tasks.
    std::map<std::string, std::multiset<std::pair<unsigned, unsigned>>>
        keys;
    std::map<std::string, uint64_t> insts;
    for (const auto &t : pass.tasks) {
        keys[t.column].insert({t.row, t.trace});
        insts[t.column] += t.stats.x86Retired;
    }
    const auto &ic = keys["IC"];
    const bool same_sets = !ic.empty() && keys["TC"] == ic &&
                           keys["RP"] == ic &&
                           std::set<std::pair<unsigned, unsigned>>(
                               ic.begin(), ic.end())
                                   .size() == ic.size() &&
                           insts["TC"] == insts["IC"] &&
                           insts["RP"] == insts["IC"];
    check("derived_task_sets", same_sets,
          "IC/TC/RP tasks: " + std::to_string(ic.size()) + "/" +
              std::to_string(keys["TC"].size()) + "/" +
              std::to_string(keys["RP"].size()));

    // Span self times must add up to the task's time, and no child
    // may outlast its parent.
    constexpr int64_t kClockResolutionNs = 1000;
    unsigned bad_tasks = 0;
    for (const auto &t : pass.tasks) {
        if (!t.error.empty() || t.spans.empty())
            continue;
        std::vector<int64_t> child_sum(t.spans.size() + 1, 0);
        for (const Span &s : t.spans)
            child_sum[s.parent] += s.end - s.start;
        int64_t self_total = 0;
        bool ok = true;
        for (const Span &s : t.spans) {
            const int64_t self = s.end - s.start - child_sum[s.id];
            ok = ok && self >= -kClockResolutionNs;
            self_total += self;
        }
        const int64_t task = t.spans.front().end - t.spans.front().start;
        ok = ok && std::llabs(self_total - task) <= kClockResolutionNs;
        bad_tasks += !ok;
    }
    check("span_self_times", bad_tasks == 0,
          std::to_string(bad_tasks) +
              " task(s) whose span self times do not sum to the task");

    unsigned fp_mismatch = 0;
    for (size_t c = 0; c < untraced.size() && c < pass.cells.size(); ++c) {
        fp_mismatch +=
            untraced[c].fingerprint() != pass.cells[c].fingerprint();
    }
    check("traced_fingerprints",
          untraced.size() == pass.cells.size() && fp_mismatch == 0,
          std::to_string(fp_mismatch) +
              " cell(s) whose traced fingerprint differs from the "
              "untraced sweep");
    return checks;
}

std::vector<Metric>
layerMetrics(const Setup &setup, const TracedPass &pass,
             double untraced_wall_seconds)
{
    std::vector<Metric> m;
    auto put = [&](std::string name, double value, std::string unit) {
        m.push_back({std::move(name), value, std::move(unit)});
    };

    int64_t synth_ns = 0, ingest_ns = 0, translate_ns = 0;
    uint64_t synth_recs = 0, ingest_recs = 0, records = 0, uops = 0;
    int64_t grid_trace_ns = 0, grid_program_ns = 0, grid_task_ns = 0;
    std::vector<double> task_ms;
    struct ColumnTime
    {
        int64_t ns = 0;
        uint64_t insts = 0;
    };
    std::map<std::string, ColumnTime> column;
    OptTimes opt_all, opt_rp;
    uint64_t opt_insts = 0, rp_insts = 0;
    for (const auto &t : pass.tasks) {
        (t.ingest ? ingest_ns : synth_ns) += t.traceNs();
        (t.ingest ? ingest_recs : synth_recs) += t.records;
        translate_ns += t.translateNs;
        records += t.records;
        uops += t.uops;
        auto &col = column[metricLabel(t.column)];
        col.ns += t.simNs();
        col.insts += t.stats.x86Retired;
        if (t.optimizes) {
            opt_all.merge(t.opt);
            opt_insts += t.stats.x86Retired;
        }
        if (t.column == "RP") {
            opt_rp.merge(t.opt);
            rp_insts += t.stats.x86Retired;
        }
        if (t.cell >= 0) {
            grid_trace_ns += t.traceNs();
            grid_program_ns += t.programNs();
            grid_task_ns += t.end - t.start;
            task_ms.push_back(double(t.programNs()) / 1e6);
        }
    }
    if (synth_recs == 0) {
        // corpus-replay synthesizes only while setup records the corpus.
        synth_ns = setup.recordSynthNs;
        synth_recs = setup.recordRecords;
    }

    put("trace.synth_ns_per_inst", ratio(synth_ns, synth_recs), "ns/inst");
    put("trace.ingest_ns_per_inst", ratio(ingest_ns, ingest_recs),
        "ns/inst");
    put("trace.share", ratio(grid_trace_ns, grid_program_ns), "ratio");
    put("trace.tracing_overhead_frac",
        ratio(pass.gridWallSeconds, untraced_wall_seconds) - 1.0, "ratio");
    put("uop.translate_ns_per_inst", ratio(translate_ns, records),
        "ns/inst");
    put("uop.uops_per_inst", ratio(uops, records), "uops/inst");

    auto col_ns = [&](const char *label) {
        const auto it = column.find(label);
        return it == column.end() ? 0.0
                                  : ratio(it->second.ns, it->second.insts);
    };
    for (const char *label : kColumnLabels)
        put(std::string("sim.run_ns_per_inst.") + label, col_ns(label),
            "ns/inst");
    put("timing.ns_per_inst", col_ns("IC"), "ns/inst");
    put("core.engine_ns_per_inst",
        col_ns("RP") - col_ns("IC") -
            ratio(opt_rp.passthroughNs, rp_insts),
        "ns/inst");
    put("sim.tc_fill_ns_per_inst", col_ns("TC") - col_ns("IC"), "ns/inst");

    put("opt.ns_per_inst", ratio(opt_all.optNs, opt_insts), "ns/inst");
    put("opt.frames", double(opt_all.frames), "count");
    put("opt.us_per_frame", ratio(opt_all.optNs, opt_all.frames) / 1e3,
        "us/frame");
    put("opt.remap_ns_per_inst", ratio(opt_all.remapNs, opt_insts),
        "ns/inst");
    for (unsigned p = 0; p < opt::NUM_PASS_IDS; ++p) {
        put(std::string("opt.pass.") +
                opt::passIdName(static_cast<opt::PassId>(p)) +
                ".ns_per_inst",
            ratio(opt_all.passNs[p], opt_insts), "ns/inst");
    }
    put("opt.finalize_ns_per_inst", ratio(opt_all.finalizeNs, opt_insts),
        "ns/inst");
    put("opt.uops_removed_frac",
        ratio(double(opt_all.inUops) - double(opt_all.outUops),
              opt_all.inUops),
        "ratio");

    // Simulated counts, pooled over the grid cells (exact).
    RunStats all, frames;
    const auto &grid = setup.cells();
    for (size_t c = 0; c < pass.cells.size(); ++c) {
        all.merge(pass.cells[c]);
        if (grid[c].cfg.usesFrames())
            frames.merge(pass.cells[c]);
    }
    put("core.frame_commit_frac",
        ratio(frames.frameCommits, frames.frameCommits + frames.frameAborts),
        "ratio");
    // engineCandidates counts the accepted ones; duplicates were dropped.
    put("core.duplicate_candidate_frac",
        ratio(frames.engineDuplicates,
              frames.engineCandidates + frames.engineDuplicates),
        "ratio");
    put("core.fcache_evictions_per_kinst",
        ratio(frames.fcacheEvictions * 1e3, frames.x86Retired), "per_kinst");
    for (unsigned b = 0; b < timing::NUM_CYCLE_BINS; ++b) {
        const auto bin = static_cast<timing::CycleBin>(b);
        std::string name = timing::cycleBinName(bin);
        std::transform(name.begin(), name.end(), name.begin(), ::toupper);
        put("timing.bin." + name + ".frac",
            ratio(all.bins.get(bin), all.cycles()), "ratio");
    }
    put("timing.mispredicts_per_kinst",
        ratio(all.mispredicts * 1e3, all.x86Retired), "per_kinst");
    put("timing.icache_misses_per_kinst",
        ratio(all.icacheMisses * 1e3, all.x86Retired), "per_kinst");

    const unsigned tail = tailPercentile(task_ms.size());
    put("sim.task_ms.p50", task_ms.empty() ? 0 : percentile(task_ms, 50),
        "ms");
    put("sim.task_ms.tail",
        task_ms.empty() ? 0 : percentile(task_ms, tail), "ms");
    put("sim.task_ms.tail_pct", tail, "percentile");
    put("sim.task_ms.samples", double(task_ms.size()), "count");
    // Busy task time against the traced pass's own wall: the untraced
    // wall would fold the tracing overhead into the efficiency.
    put("sim.sweep_parallel_eff",
        ratio(double(grid_task_ns) / 1e9,
              pass.gridWallSeconds * kWorkers),
        "ratio");
    return m;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
percentile(std::vector<double> v, double pct)
{
    std::sort(v.begin(), v.end());
    const auto rank = size_t(std::ceil(pct / 100.0 * double(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

unsigned
tailPercentile(size_t samples)
{
    for (unsigned p = 99; p > 50; --p) {
        const auto rank = size_t(std::ceil(p / 100.0 * double(samples)));
        if (samples >= rank + 10)
            return p;
    }
    return 50;
}

std::string
buildAndHostLine()
{
    struct utsname u
    {
    };
    const std::string host = ::uname(&u) == 0 ? u.nodename : "unknown";
    return std::string("build ") + PERFBENCH_BUILD_TYPE + ", compiler " +
           PERFBENCH_COMPILER + ", nproc " +
           std::to_string(std::thread::hardware_concurrency()) + ", host " +
           host;
}

std::string
spansJsonl(const TracedPass &pass, const Setup &setup,
           const std::string &header)
{
    std::string out = "{\"meta\": \"" + header + "\"}\n";
    char buf[512];
    for (size_t i = 0; i < pass.tasks.size(); ++i) {
        const TaskTrace &t = pass.tasks[i];
        for (const Span &s : t.spans) {
            std::snprintf(buf, sizeof buf,
                          "{\"task\": %zu, \"id\": %u, \"parent\": %u, "
                          "\"name\": \"%s\", \"start_ns\": %lld, "
                          "\"end_ns\": %lld, \"calls\": %llu",
                          i + 1, s.id, s.parent, s.name.c_str(),
                          (long long)s.start, (long long)s.end,
                          (unsigned long long)s.calls);
            out += buf;
            if (s.parent == 0) {
                out += ", \"workload\": \"" +
                       setup.workloads()[t.row].name +
                       "\", \"hot_spot\": " + std::to_string(t.trace) +
                       ", \"column\": \"" + t.column +
                       "\", \"grid\": " + (t.cell >= 0 ? "true" : "false");
            }
            out += "}\n";
        }
    }
    return out;
}

} // namespace perfbench
