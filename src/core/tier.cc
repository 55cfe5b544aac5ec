#include "core/tier.hh"

#include <algorithm>

#include "util/logging.hh"

namespace replay::core {

namespace {

uint64_t
aliasKey(uint32_t pc, uint8_t seq)
{
    return (uint64_t(pc) << 8) | seq;
}

} // anonymous namespace

void
FrozenAliasHints::snapshot(const Frame &frame,
                           const opt::AliasHints &live)
{
    dirty_.clear();
    const uop::UopSlab &code = frame.body.code;
    for (size_t i = 0, n = code.size(); i < n; ++i) {
        if (!(code.attr[i] & uop::UA_KIND_MEM) ||
            code.instIdx[i] >= frame.pcs.size()) {
            continue;
        }
        const uint32_t pc = frame.pcs[code.instIdx[i]];
        if (!live.cleanForSpeculation(pc, code.memSeq[i]))
            dirty_.push_back(aliasKey(pc, code.memSeq[i]));
    }
    std::sort(dirty_.begin(), dirty_.end());
    dirty_.erase(std::unique(dirty_.begin(), dirty_.end()),
                 dirty_.end());
}

bool
FrozenAliasHints::cleanForSpeculation(uint32_t x86_pc,
                                      uint8_t mem_seq) const
{
    return !std::binary_search(dirty_.begin(), dirty_.end(),
                               aliasKey(x86_pc, mem_seq));
}

TierEngine::TierEngine(const TierConfig &cfg,
                       const opt::OptConfig &full_cfg)
    : cfg_(cfg), fullOptimizer_(full_cfg),
      // Deterministic mode runs jobs inline on the sequencer thread
      // (0 pool workers); otherwise the configured worker count.
      queue_(cfg.deterministic ? 0 : cfg.workers,
             [this](ReoptJob &job) { return runJob(job); })
{
    panic_if(cfg_.workers == 0,
             "TierEngine built with a zero tier budget");
}

bool
TierEngine::wantsReopt(const Frame &frame) const
{
    return frame.tier == FrameTier::CHEAP &&
           frame.fetches >= cfg_.hotThreshold &&
           !inflight_.contains(frame.startPc);
}

void
TierEngine::enqueue(const Frame &frame, const opt::AliasHints &live)
{
    ReoptJob job;
    job.frameId = frame.id;
    job.startPc = frame.startPc;
    job.origInputUops = frame.body.inputUops;
    job.origInputLoads = frame.body.inputLoads;
    // The cheap passes only delete micro-ops, so the survivors' uop
    // fields are still in architectural form and re-feed the remapper
    // directly; block tags ride along for block-scoped configs.
    const size_t n_body = frame.body.size();
    job.uops.reserve(n_body);
    job.blocks.reserve(n_body);
    for (size_t i = 0; i < n_body; ++i) {
        job.uops.push_back(frame.body.code.get(i));
        job.blocks.push_back(frame.body.block[i]);
    }
    job.alias.snapshot(frame, live);

    // Hot frames first; frames whose assertions keep firing are about
    // to be bias-evicted and sink to the back of the queue.
    const int64_t penalty =
        int64_t(cfg_.assertPenalty) * int64_t(frame.assertFires);
    const int64_t priority = int64_t(frame.fetches) - penalty;

    inflight_.insert(frame.startPc);
    queue_.submit(frame.startPc, priority, std::move(job));
}

unsigned
TierEngine::cancelPending(uint32_t pc)
{
    const unsigned dropped = queue_.cancel(pc);
    if (dropped)
        inflight_.erase(pc);
    return dropped;
}

unsigned
TierEngine::shedPending()
{
    const std::vector<uint64_t> keys = queue_.shedAll();
    for (const uint64_t key : keys)
        inflight_.erase(uint32_t(key));
    return unsigned(keys.size());
}

void
TierEngine::pullCompleted()
{
    inbox_scratch_.clear();
    queue_.takeCompleted(inbox_scratch_);
    for (auto &res : inbox_scratch_)
        inbox_.push_back(std::move(res));
    inbox_scratch_.clear();
}

void
TierEngine::waitIdle()
{
    try {
        queue_.waitIdle();
    } catch (const std::exception &e) {
        warn("tier worker failed during quiesce: %s", e.what());
    }
    pullCompleted();
}

ReoptResult
TierEngine::runJob(ReoptJob &job)
{
    ReoptResult res;
    res.frameId = job.frameId;
    res.startPc = job.startPc;
    fullOptimizer_.optimize(job.uops, job.blocks, &job.alias, res.stats,
                            res.body);
    // The optimizer counted the snapshot (cheap survivors) as its
    // input; restore the raw decode-flow accounting so dynamic
    // uop-reduction metrics keep comparing against the original.
    res.body.inputUops = job.origInputUops;
    res.body.inputLoads = job.origInputLoads;
    return res;
}

} // namespace replay::core
