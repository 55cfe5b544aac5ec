#include "core/sequencer.hh"

#include <algorithm>

#include "fault/faultinjector.hh"
#include "util/logging.hh"

namespace replay::core {

RePlayEngine::RePlayEngine(EngineConfig cfg)
    : cfg_(cfg), constructor_(cfg.constructor),
      optimizer_(cfg.optConfig), cheapOptimizer_(cfg.cheapOptConfig),
      optPipe_(cfg.optPipelineDepth, cfg.optCyclesPerUop),
      cache_(cfg.fcacheCapacityUops), quarantine_(cfg.quarantine)
{
    if (cfg_.optimize && cfg_.tier.workers > 0) {
        tier_ = std::make_unique<TierEngine>(cfg_.tier, cfg_.optConfig);
        // Stale-work leak fix: a frame leaving the cache (capacity
        // eviction, bias eviction, quarantine) takes its pending
        // re-optimization job with it.
        cache_.setEvictionListener([this](uint32_t pc) {
            tierCancelled_ += tier_->cancelPending(pc);
        });
    }
}

void
RePlayEngine::sealBody(Frame &frame)
{
    bool sabotaged = false;
    uint64_t pristine = 0;
    if (cfg_.injector) {
        pristine = fault::FaultInjector::hashBody(frame.body);
        if (cfg_.injector->maybeSabotagePass(frame.body)) {
            sabotaged =
                fault::FaultInjector::hashBody(frame.body) != pristine;
            ++stats_.counter("fault_pass_sabotage");
        }
    }
    frame.bodyHash = pristine;
    frame.faultInjected = sabotaged;
    frame.unsafeStores.clear();
    const opt::OptimizedFrame &body = frame.body;
    for (size_t i = 0; i < body.size(); ++i) {
        if (body.unsafe[i] && (body.code.attr[i] & uop::UA_KIND_STORE))
            frame.unsafeStores.push_back(
                {body.code.instIdx[i], body.code.memSeq[i]});
    }
    std::sort(frame.unsafeStores.begin(), frame.unsafeStores.end());
}

void
RePlayEngine::enqueueCandidate(FrameCandidate &cand, uint64_t now)
{
    // Do not rebuild a frame that is already cached for this start PC
    // with the same span (common when the same cold path repeats
    // before the frame gets hot enough to fetch) — or one that is
    // still in flight in the optimization pipeline.  A shorter
    // candidate never displaces a longer frame: the constructor's goal
    // is the largest atomic region, and short variants otherwise arise
    // from every observed early exit (a frame whose assertions keep
    // firing is instead removed by bias eviction, making room for the
    // shorter variant).
    if (quarantine_.blocked(cand.startPc, now)) {
        ++stats_.counter("quarantine_candidate_drops");
        return;
    }
    if (const FramePtr existing = cache_.probe(cand.startPc)) {
        if (existing->pcs == cand.pcs ||
            existing->pcs.size() >= cand.pcs.size()) {
            ++duplicateCandidates_;
            return;
        }
    }
    for (const auto &pending : pending_) {
        if (pending.frame->startPc == cand.startPc &&
            pending.frame->pcs.size() >= cand.pcs.size()) {
            ++duplicateCandidates_;
            return;
        }
    }

    profile_.observeInstance(cand.records);

    uint64_t ready_at = now;
    if (cfg_.optimize) {
        const auto done = optPipe_.schedule(now, cand.uopCount);
        if (!done) {
            ++stats_.counter("optimizer_drops");
            return;
        }
        ready_at = *done;
    }

    // Kept: only now is the uop body worth building.
    constructor_.materialize(cand);

    // A recycled frame keeps its vector capacities; everything else is
    // reassigned below, and the optimizer overwrites body wholesale.
    FramePtr frame = framePool_.acquire();
    frame->id = nextFrameId_++;
    frame->startPc = cand.startPc;
    frame->pcs = cand.pcs;  // copy: the candidate's buffer recycles
    frame->instUops = cand.instUops;
    frame->nextPc = cand.nextPc;
    frame->dynamicExit = cand.dynamicExit;
    frame->numBlocks = cand.numBlocks;
    frame->fetches = 0;
    frame->assertFires = 0;
    frame->conflicts = 0;
    frame->tier = FrameTier::FULL;
    frame->generation = 0;
    if (!cfg_.optimize) {
        opt::Optimizer::passthrough(cand.uops(), cand.blocks(), true,
                                    frame->body);
    } else if (tier_) {
        // Tiered admission: the cheap subset gets the frame into the
        // cache immediately; the background workers re-run the full
        // budget once it proves hot.
        cheapOptimizer_.optimize(cand.uops(), cand.blocks(), &profile_,
                                 optStats_, frame->body);
        frame->tier = FrameTier::CHEAP;
    } else {
        optimizer_.optimize(cand.uops(), cand.blocks(), &profile_,
                            optStats_, frame->body);
    }

    sealBody(*frame);
    pending_.push_back({ready_at, std::move(frame)});
    ++candidates_;
}

void
RePlayEngine::drainReady(uint64_t now)
{
    drainTier();
    while (!pending_.empty() && pending_.front().readyAt <= now) {
        cache_.insert(std::move(pending_.front().frame));
        pending_.pop_front();
    }
}

void
RePlayEngine::observeRetired(const trace::TraceRecord &rec,
                             unsigned num_uops, uint64_t now)
{
    drainReady(now);
    auto candidate = constructor_.observe(rec, num_uops);
    if (candidate) {
        enqueueCandidate(*candidate, now);
        constructor_.recycle(std::move(*candidate));
    }
}

FramePtr
RePlayEngine::frameFor(uint32_t pc, uint64_t now)
{
    drainReady(now);
    if (quarantine_.blocked(pc, now)) {
        ++stats_.counter("quarantine_blocks");
        return nullptr;
    }
    FramePtr frame = cache_.lookup(pc);
    if (!frame)
        return nullptr;
    // Pin the in-flight entry: capacity eviction between now and the
    // frame's commit/abort must not victimize the frame being
    // sequenced, nor may a re-optimized body be published onto it
    // (the matching unpin is in frameCommitted / frameAborted /
    // frameQuarantined).
    cache_.pin(pc);
    if (cfg_.injector && cfg_.injector->maybeFlipOnFetch(frame->body)) {
        frame->faultInjected =
            fault::FaultInjector::hashBody(frame->body) !=
            frame->bodyHash;
        ++stats_.counter("fault_fetch_flips");
    }
    return frame;
}

void
RePlayEngine::frameCommitted(const FramePtr &frame)
{
    cache_.unpin();
    ++frame->fetches;
    ++frameCommits_;
    maybeScheduleReopt(frame);
}

void
RePlayEngine::maybeScheduleReopt(const FramePtr &frame)
{
    if (!tier_ || !tier_->wantsReopt(*frame))
        return;
    tier_->enqueue(*frame, profile_);
    ++tierEnqueues_;
}

void
RePlayEngine::drainTier()
{
    if (!tier_)
        return;
    // Explicit inbox loop (see TierEngine's drain protocol): stop at
    // the first DEFER so publication order stays stable; a consumed
    // result retires its start PC from the in-flight set.
    tier_->refreshInbox();
    while (tier_->hasInboxResult()) {
        if (publishReopt(tier_->inboxFront()) ==
            TierEngine::Verdict::DEFER) {
            return;
        }
        tier_->popInboxFront();
    }
}

TierEngine::Verdict
RePlayEngine::publishReopt(ReoptResult &res)
{
    // Versioned-slot check: publish only onto the exact frame the job
    // snapshotted.  A frame that was evicted, bias-replaced, or
    // rebuilt mid-flight makes the result stale.
    const FramePtr cur = cache_.probe(res.startPc);
    if (!cur || cur->id != res.frameId) {
        ++tierStaleDrops_;
        return TierEngine::Verdict::CONSUMED;
    }
    // Pinned-frame invariant: the entry the sequencer currently holds
    // is never swapped under it; the result waits for the next drain.
    if (cache_.isPinned(res.startPc)) {
        ++tierDeferrals_;
        return TierEngine::Verdict::DEFER;
    }
    FramePtr frame = framePool_.acquire();
    frame->id = nextFrameId_++;
    frame->startPc = cur->startPc;
    frame->pcs = cur->pcs;
    frame->instUops = cur->instUops;
    frame->nextPc = cur->nextPc;
    frame->dynamicExit = cur->dynamicExit;
    frame->numBlocks = cur->numBlocks;
    // Usage statistics carry across the swap so hotness and
    // bias-eviction thresholds keep their history.
    frame->fetches = cur->fetches;
    frame->assertFires = cur->assertFires;
    frame->conflicts = cur->conflicts;
    frame->tier = FrameTier::FULL;
    frame->generation = cur->generation + 1;
    frame->body = std::move(res.body);
    sealBody(*frame);

    // Static verification gate before publication: a body the linter
    // rejects (including sabotaged ones) never replaces the known-good
    // cheap body.
    if (cfg_.tierVerify && !cfg_.tierVerify(*frame)) {
        ++tierVerifyRejects_;
        return TierEngine::Verdict::CONSUMED;
    }
    const unsigned old_uops = cur->numUops();
    const unsigned new_uops = frame->numUops();
    if (cache_.publish(res.startPc, std::move(frame))) {
        ++tierPublishes_;
        if (new_uops < old_uops)
            tierUopsRemoved_ += old_uops - new_uops;
    } else {
        ++tierStaleDrops_;
    }
    return TierEngine::Verdict::CONSUMED;
}

void
RePlayEngine::quiesceTier()
{
    if (!tier_)
        return;
    // Pending jobs are abandoned (counted), in-flight jobs drain, and
    // whatever completed gets one final publication pass — nothing is
    // pinned between trace records, so no result can be deferred
    // forever.
    tierDroppedAtExit_ += tier_->shedPending();
    tier_->waitIdle();
    drainTier();
    tierDroppedAtExit_ += tier_->undrained();
}

void
RePlayEngine::frameAborted(const FramePtr &frame,
                           const FrameOutcome &outcome)
{
    cache_.unpin();
    ++frame->fetches;
    if (outcome.kind == FrameOutcome::Kind::UNSAFE_CONFLICT) {
        ++frame->conflicts;
        ++stats_.counter("unsafe_conflicts");
        // Never speculate on that store site again, and rebuild the
        // frame without it.
        for (const auto &ref : frame->unsafeStores) {
            if (ref.instIdx == outcome.faultIndex) {
                profile_.markDirty(frame->pcs[ref.instIdx],
                                   ref.memSeq);
            }
        }
        cache_.invalidate(frame->startPc);
        return;
    }

    ++frame->assertFires;
    ++assertFires_;
    // A frame whose assertions keep firing has a stale bias; evict it
    // so the constructor can rebuild along the new hot path.
    if (frame->assertFires >= cfg_.evictFireThreshold &&
        frame->assertFires * cfg_.evictFirePenalty >= frame->fetches) {
        cache_.invalidate(frame->startPc);
        ++stats_.counter("bias_evictions");
    }
}

void
RePlayEngine::frameQuarantined(const FramePtr &frame, uint64_t now)
{
    cache_.unpin();
    cache_.invalidate(frame->startPc);
    quarantine_.add(frame->startPc, now);
    ++stats_.counter("quarantines");
}

} // namespace replay::core
