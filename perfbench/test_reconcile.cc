/**
 * @file
 * Reconciliation tests for the benchmark's traced pass: what the
 * observer and the spans measure must add up to what the simulator's
 * own RunStats report, and tracing must not change a single result.
 * Small grids at a short budget, so the suite runs in seconds.
 */

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "bench.hh"

using namespace perfbench;
using replay::sim::Machine;
using replay::sim::RunStats;
using replay::sim::SimConfig;

namespace {

constexpr uint64_t kTestInsts = 50000;

/** An ablation-shaped grid: no IC or TC column. */
Spec
ablationSpec()
{
    Spec s;
    s.name = "test-ablation";
    s.rows = {"bzip2", "excel"};
    s.cols = {{"RP", SimConfig::make(Machine::RP)},
              {"RPO", SimConfig::make(Machine::RPO)}};
    auto no_cse = SimConfig::make(Machine::RPO);
    no_cse.engine.optConfig = replay::opt::OptConfig::without("CSE");
    s.cols.push_back({"no CSE", no_cse});
    s.instsPerTrace = kTestInsts;
    return s;
}

Spec
corpusSpec()
{
    Spec s;
    s.name = "test-corpus";
    s.rows = {"gzip", "dream"};
    s.cols = {{"RPO", SimConfig::make(Machine::RPO)}};
    s.corpus = true;
    s.instsPerTrace = kTestInsts;
    return s;
}

/** Setup names its corpus directory after the process id itself. */
std::string
scratchDir()
{
    return testing::TempDir();
}

const Check &
findCheck(const std::vector<Check> &checks, const std::string &name)
{
    const auto it =
        std::find_if(checks.begin(), checks.end(),
                     [&](const Check &c) { return c.name == name; });
    EXPECT_NE(it, checks.end()) << name;
    return *it;
}

double
metric(const std::vector<Metric> &metrics, const std::string &name)
{
    for (const Metric &m : metrics)
        if (m.name == name)
            return m.value;
    ADD_FAILURE() << "no metric " << name;
    return 0;
}

struct Traced
{
    Traced(const Spec &s)
        : spec(s), setup(spec, 0, scratchDir(), 0),
          untraced(runUntraced(spec, setup)), pass(runTraced(spec, setup))
    {
    }

    Spec spec;
    Setup setup;
    SweepRun untraced;
    TracedPass pass;
};

} // namespace

TEST(Reconcile, ObserverFramesEqualFramesOptimized)
{
    const Traced t(ablationSpec());
    ASSERT_TRUE(t.untraced.error.empty()) << t.untraced.error;
    uint64_t observed = 0, counted = 0;
    for (const TaskTrace &task : t.pass.tasks) {
        EXPECT_EQ(task.opt.frames, task.stats.optStats.framesOptimized)
            << task.column;
        observed += task.opt.frames;
        counted += task.stats.optStats.framesOptimized;
    }
    EXPECT_GT(observed, 0u);
    EXPECT_EQ(observed, counted);
    EXPECT_TRUE(findCheck(reconcile(t.pass, t.untraced.cells), "opt_frames")
                    .ok);
}

TEST(Reconcile, ObserverRemovalEqualsOptStatsReduction)
{
    const Traced t(ablationSpec());
    replay::opt::OptStats pooled;
    for (const TaskTrace &task : t.pass.tasks)
        pooled.merge(task.stats.optStats);
    const auto metrics = layerMetrics(t.setup, t.pass, 1.0);
    EXPECT_GT(pooled.uopReduction(), 0.0);
    EXPECT_DOUBLE_EQ(metric(metrics, "opt.uops_removed_frac"),
                     pooled.uopReduction());
    EXPECT_EQ(metric(metrics, "opt.frames"), double(pooled.framesOptimized));
    EXPECT_TRUE(findCheck(reconcile(t.pass, t.untraced.cells),
                          "opt_uops_removed")
                    .ok);
    EXPECT_TRUE(findCheck(reconcile(t.pass, t.untraced.cells),
                          "opt_remap_replay")
                    .ok);
}

TEST(Reconcile, DerivedDifferencesShareOneTaskSet)
{
    const Traced t(ablationSpec());
    // The grid has RP but no IC or TC: reference runs supply them for
    // every (row, hot spot), and only them.
    std::map<std::string, std::set<std::pair<unsigned, unsigned>>> keys;
    std::map<std::string, uint64_t> insts;
    unsigned refs = 0;
    for (const TaskTrace &task : t.pass.tasks) {
        keys[task.column].insert({task.row, task.trace});
        insts[task.column] += task.stats.x86Retired;
        refs += task.cell < 0;
    }
    EXPECT_EQ(refs, 2u * 4u);   // IC and TC over bzip2.0 + excel.0-2
    EXPECT_EQ(keys["IC"].size(), 4u);
    EXPECT_EQ(keys["IC"], keys["TC"]);
    EXPECT_EQ(keys["IC"], keys["RP"]);
    EXPECT_EQ(insts["IC"], insts["RP"]);
    EXPECT_TRUE(findCheck(reconcile(t.pass, t.untraced.cells),
                          "derived_task_sets")
                    .ok);

    // Drop one reference run: the check must notice.
    TracedPass broken = t.pass;
    broken.tasks.pop_back();
    EXPECT_FALSE(findCheck(reconcile(broken, t.untraced.cells),
                           "derived_task_sets")
                     .ok);
}

TEST(Reconcile, SpanSelfTimesSumToTaskTime)
{
    const Traced t(ablationSpec());
    for (const TaskTrace &task : t.pass.tasks) {
        ASSERT_FALSE(task.spans.empty());
        std::map<uint32_t, int64_t> children;
        for (const Span &s : task.spans)
            children[s.parent] += s.end - s.start;
        int64_t self_total = 0;
        for (const Span &s : task.spans) {
            const int64_t self = s.end - s.start - children[s.id];
            EXPECT_GE(self, -1000) << s.name;
            self_total += self;
        }
        EXPECT_NEAR(double(self_total), double(task.end - task.start),
                    1000.0);
    }
    EXPECT_TRUE(findCheck(reconcile(t.pass, t.untraced.cells),
                          "span_self_times")
                    .ok);

    // A child that outlasts its parent breaks the sum.
    TracedPass broken = t.pass;
    Span &child = broken.tasks.front().spans[1];
    child.end += 10 * (broken.tasks.front().end - broken.tasks.front().start);
    EXPECT_FALSE(findCheck(reconcile(broken, t.untraced.cells),
                           "span_self_times")
                     .ok);
}

TEST(Reconcile, TracedFingerprintsEqualUntraced)
{
    const Traced t(ablationSpec());
    ASSERT_EQ(t.pass.cells.size(), t.untraced.cells.size());
    for (size_t c = 0; c < t.pass.cells.size(); ++c) {
        EXPECT_EQ(t.pass.cells[c].fingerprint(),
                  t.untraced.cells[c].fingerprint())
            << t.untraced.cells[c].workload << " "
            << t.untraced.cells[c].config;
    }
    EXPECT_TRUE(findCheck(reconcile(t.pass, t.untraced.cells),
                          "traced_fingerprints")
                    .ok);

    std::vector<RunStats> other = t.untraced.cells;
    ++other.back().x86Retired;
    EXPECT_FALSE(findCheck(reconcile(t.pass, other), "traced_fingerprints")
                     .ok);
}

TEST(Reconcile, CorpusReplayServesEveryTaskFromTheCorpus)
{
    const Traced t(corpusSpec());
    ASSERT_TRUE(t.untraced.error.empty()) << t.untraced.error;
    EXPECT_EQ(t.untraced.corpusHits, t.untraced.tasks);
    EXPECT_EQ(t.untraced.corpusMisses, 0u);
    for (const TaskTrace &task : t.pass.tasks)
        EXPECT_TRUE(task.ingest) << task.column;
    for (const Check &c : reconcile(t.pass, t.untraced.cells))
        EXPECT_TRUE(c.ok) << c.name << ": " << c.detail;

    // The corpus replays exactly what live synthesis would produce.
    Spec live = corpusSpec();
    live.corpus = false;
    const perfbench::Setup live_setup(live, 0, scratchDir(), 1);
    const SweepRun synthesized = runUntraced(live, live_setup);
    ASSERT_EQ(synthesized.cells.size(), t.untraced.cells.size());
    EXPECT_EQ(synthesized.digest, t.untraced.digest);
}

TEST(Reconcile, SeedZeroKeepsTable1AndOtherSeedsPerturb)
{
    const Spec spec = ablationSpec();
    const auto base = makeWorkloads(spec, 0);
    const auto held_out = makeWorkloads(spec, 7);
    ASSERT_EQ(base.size(), held_out.size());
    for (size_t i = 0; i < base.size(); ++i) {
        EXPECT_EQ(base[i].personality.seed,
                  replay::trace::findWorkload(spec.rows[i]).personality.seed);
        EXPECT_NE(held_out[i].personality.seed, base[i].personality.seed);
        EXPECT_EQ(held_out[i].personality.numHotProcs,
                  base[i].personality.numHotProcs);
    }
}

TEST(Reconcile, TailPercentileLeavesTenSamplesAbove)
{
    EXPECT_EQ(tailPercentile(96), 89u);
    EXPECT_EQ(tailPercentile(64), 84u);
    EXPECT_EQ(tailPercentile(24), 58u);
    EXPECT_EQ(tailPercentile(5), 50u);
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_EQ(percentile(v, 50), 50);
    EXPECT_EQ(percentile(v, 89), 89);
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}
