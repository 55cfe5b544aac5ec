/**
 * @file
 * Optimizer datapath microbenchmarks (§4 / §5.1.4), built on
 * google-benchmark: software-side throughput of the pass pipeline over
 * real frame candidates, the datapath primitive counts per
 * micro-operation, and the occupancy behaviour of the 10-cycles-per-
 * micro-op, depth-3 engine pipeline the paper models.
 */

#include <benchmark/benchmark.h>

#include "core/constructor.hh"
#include "opt/datapath.hh"
#include "opt/optimizer.hh"
#include "trace/tracer.hh"
#include "trace/workload.hh"
#include "uop/translator.hh"

using namespace replay;

namespace {

/** Harvest real frame candidates from a workload. */
std::vector<core::FrameCandidate>
harvestCandidates(const char *workload, unsigned count)
{
    const auto &w = trace::findWorkload(workload);
    const auto prog = w.buildProgram(0);
    trace::ExecutorTraceSource src(prog, 400000);
    core::FrameConstructor ctor;
    const uop::Translator translator;
    std::vector<core::FrameCandidate> out;
    while (!src.done() && out.size() < count) {
        const trace::TraceRecord &rec = *src.peek();
        const unsigned n_uops = unsigned(
            translator.translate(rec.inst, rec.pc, rec.pc + rec.length)
                .size());
        if (auto cand = ctor.observe(rec, n_uops)) {
            ctor.materialize(*cand);
            out.push_back(std::move(*cand));
        }
        src.advance();
    }
    return out;
}

const std::vector<core::FrameCandidate> &
candidates()
{
    static const auto cands = harvestCandidates("crafty", 64);
    return cands;
}

} // namespace

/** Software optimization throughput (micro-ops optimized per second). */
static void
BM_OptimizeFrame(benchmark::State &state)
{
    const auto &cands = candidates();
    opt::Optimizer optimizer;
    opt::OptStats stats;
    uint64_t uops = 0;
    size_t i = 0;
    for (auto _ : state) {
        const auto &cand = cands[i++ % cands.size()];
        auto frame =
            optimizer.optimize(cand.uops(), cand.blocks(), nullptr, stats);
        benchmark::DoNotOptimize(frame.numUops());
        uops += cand.uopCount;
    }
    state.counters["uops/s"] = benchmark::Counter(
        double(uops), benchmark::Counter::kIsRate);
    state.counters["reduction%"] = 100.0 * stats.uopReduction();
}
BENCHMARK(BM_OptimizeFrame);

/** Remap-only cost (the rename step every frame pays). */
static void
BM_RemapOnly(benchmark::State &state)
{
    const auto &cands = candidates();
    size_t i = 0;
    for (auto _ : state) {
        const auto &cand = cands[i++ % cands.size()];
        auto body = opt::Optimizer::passthrough(cand.uops(), cand.blocks());
        benchmark::DoNotOptimize(body.numUops());
    }
}
BENCHMARK(BM_RemapOnly);

/**
 * Datapath primitive usage per input micro-op: how many parent
 * lookups, child-list steps, field operations and rewrites a hardware
 * implementation of the pass pipeline would execute (§4's primitive
 * classes), and the implied cycles at 1 cycle/primitive against the
 * paper's 10-cycles-per-uop budget.
 */
static void
BM_DatapathPrimitives(benchmark::State &state)
{
    const auto &cands = candidates();
    opt::Optimizer optimizer;
    opt::OptStats stats;
    uint64_t prims = 0, uops = 0, prim_cycles = 0;
    size_t i = 0;
    opt::PrimitiveLatency latency;
    for (auto _ : state) {
        const auto &cand = cands[i++ % cands.size()];
        auto frame =
            optimizer.optimize(cand.uops(), cand.blocks(), nullptr, stats);
        prims += frame.prims.total();
        prim_cycles += latency.cyclesFor(frame.prims);
        uops += cand.uopCount;
    }
    state.counters["prims/uop"] = double(prims) / double(uops);
    state.counters["cycles/uop"] = double(prim_cycles) / double(uops);
}
BENCHMARK(BM_DatapathPrimitives);

/**
 * Engine occupancy: with candidates arriving at rePLay-like rates, a
 * pipeline depth of 3 at 10 cycles/uop suffices (§5.1.4) — measured as
 * the drop rate at several depths.
 */
static void
BM_PipelineDepthSweep(benchmark::State &state)
{
    const unsigned depth = unsigned(state.range(0));
    const auto &cands = candidates();
    for (auto _ : state) {
        opt::OptimizerPipeline pipe(depth, 10);
        uint64_t now = 0;
        for (unsigned k = 0; k < 512; ++k) {
            const auto &cand = cands[k % cands.size()];
            // Candidates arrive at post-deduplication rates: the
            // sequencer filters rebuild candidates, so genuinely new
            // frames show up every few frame-lengths.
            now += cand.uopCount * 4 + 30;
            benchmark::DoNotOptimize(
                pipe.schedule(now, unsigned(cand.uopCount)));
        }
        state.counters["drop%"] = 100.0 * double(pipe.dropped()) /
            double(pipe.dropped() + pipe.accepted());
    }
}
BENCHMARK(BM_PipelineDepthSweep)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

BENCHMARK_MAIN();
