/**
 * @file
 * Tiered background re-optimization (ROADMAP item 5).
 *
 * The paper's engine pays the full pass pipeline on every constructed
 * frame before it can be deposited.  Kistler & Franz's continuous
 * optimization model does better: admit code cheaply, then let an
 * asynchronous service re-optimize whatever turns out to be hot.  The
 * tier engine implements that split for frames:
 *
 *   - admission runs OptConfig::cheap() (NOP removal + DCE) so frames
 *     reach the cache almost immediately,
 *   - every committed cheap-tier frame that crosses the hotness
 *     threshold is snapshotted and queued for the background workers,
 *     ranked by execution count minus an assertion-rate penalty,
 *   - workers re-run the *full* pass pipeline over the snapshot
 *     (Optimizer::optimize is re-entrant: all scratch is
 *     thread_local), and push results into a completion inbox,
 *   - the sequencer drains the inbox on its own thread and publishes
 *     each surviving body with a generation bump — never while the
 *     target entry is pinned, and only after the frame id check proves
 *     the cached frame is still the one the job was built from.
 *
 * The snapshot trick: the cheap passes only *delete* micro-ops (they
 * never rewrite operand links into producer indices that the
 * architectural form lacks), so the cheap body's surviving
 * FrameUop::uop sequence — with its per-uop block tags — is itself a
 * valid architectural micro-op stream, and re-feeding it to the full
 * optimizer needs no extra stored state.  Alias hints are frozen into
 * the job at enqueue time (the live AliasProfile is mutated by the
 * sequencer thread and must not be read concurrently).
 */

#ifndef REPLAY_CORE_TIER_HH
#define REPLAY_CORE_TIER_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "core/frame.hh"
#include "opt/optimizer.hh"
#include "util/bgqueue.hh"
#include "util/flathash.hh"

namespace replay::core {

/** Knobs for the tiered re-optimization engine. */
struct TierConfig
{
    /**
     * Background optimizer workers (the tier budget).  0 disables
     * tiering entirely: admission uses the full pipeline and the
     * engine is bit-identical to the untiered build.
     */
    unsigned workers = 0;

    /**
     * Deterministic mode: re-optimization jobs run inline on the
     * sequencer thread at their trigger point (publication still goes
     * through the same inbox/pin protocol).  Replayable and
     * fingerprint-stable; used by the golden tests.
     */
    bool deterministic = false;

    /** Commits before a cheap-tier frame is queued for re-opt. */
    unsigned hotThreshold = 2;

    /** Priority penalty per assertion fire (hot but flaky sinks). */
    unsigned assertPenalty = 4;
};

/**
 * Immutable alias-hint snapshot taken on the sequencer thread: records
 * the dirty store sites among one frame's memory micro-ops so workers
 * never touch the live (mutable) AliasProfile.
 */
class FrozenAliasHints : public opt::AliasHints
{
  public:
    /** Record the dirtiness of every memory site in @p frame. */
    void snapshot(const Frame &frame, const opt::AliasHints &live);

    bool cleanForSpeculation(uint32_t x86_pc,
                             uint8_t mem_seq) const override;

  private:
    std::vector<uint64_t> dirty_;   ///< sorted (pc << 8 | seq) keys
};

/** Snapshot of one frame queued for background re-optimization. */
struct ReoptJob
{
    uint64_t frameId = 0;       ///< identity check at publication
    uint32_t startPc = 0;
    unsigned origInputUops = 0; ///< raw decode-flow count (accounting)
    unsigned origInputLoads = 0;
    std::vector<uop::Uop> uops;     ///< cheap body survivors
    std::vector<uint16_t> blocks;   ///< their basic-block tags
    FrozenAliasHints alias;
};

/** A finished re-optimization, awaiting publication. */
struct ReoptResult
{
    uint64_t frameId = 0;
    uint32_t startPc = 0;
    opt::OptimizedFrame body;
    opt::OptStats stats;
};

/**
 * The background re-optimization service: owns the keyed priority
 * queue, the worker-side full optimizer, and the set of start PCs with
 * work in flight.  All methods except the internal job runner are
 * called from the sequencer thread only.
 */
class TierEngine
{
  public:
    /** What the publication callback did with a drained result. */
    enum class Verdict : uint8_t
    {
        CONSUMED,   ///< published, rejected, stale — done either way
        DEFER,      ///< target entry pinned: retry at the next drain
    };

    TierEngine(const TierConfig &cfg, const opt::OptConfig &full_cfg);

    /** True when @p frame is due for re-optimization. */
    bool wantsReopt(const Frame &frame) const;

    /** Snapshot @p frame and queue it (inline in deterministic mode). */
    void enqueue(const Frame &frame, const opt::AliasHints &live);

    /** Frame at @p pc left the cache: drop its pending job, if any. */
    unsigned cancelPending(uint32_t pc);

    /** End of run: drop every pending job.  Returns the count. */
    unsigned shedPending();

    /**
     * Inbox drain protocol (sequencer thread).  The engine drives the
     * loop itself:
     *
     *   tier->refreshInbox();
     *   while (tier->hasInboxResult()) {
     *       if (publish(tier->inboxFront()) == Verdict::DEFER)
     *           break;                  // pinned: retry at next drain
     *       tier->popInboxFront();      // CONSUMED: done either way
     *   }
     *
     * Stopping at the first DEFER keeps that result queued (order is
     * stable); popInboxFront() also retires the start PC from the
     * in-flight set, re-enabling wantsReopt for that frame.
     */
    void
    refreshInbox()
    {
        if (queue_.hasCompleted())
            pullCompleted();
    }

    bool hasInboxResult() const { return !inbox_.empty(); }

    ReoptResult &
    inboxFront()
    {
        panic_if(inbox_.empty(), "inboxFront on an empty tier inbox");
        return inbox_.front();
    }

    void
    popInboxFront()
    {
        panic_if(inbox_.empty(), "popInboxFront on an empty tier inbox");
        inflight_.erase(inbox_.front().startPc);
        inbox_.pop_front();
    }

    /** True when nothing is pending, running, or awaiting drain. */
    bool
    idle() const
    {
        return inflight_.size() == 0 && inbox_.empty();
    }

    /** Results executed but never drained (end-of-run accounting). */
    size_t undrained() const { return inbox_.size(); }

    /**
     * Wait for in-flight jobs; swallows (and warns about) worker
     * errors so end-of-run teardown never throws.
     */
    void waitIdle();

    uint64_t executedJobs() const { return queue_.executedCount(); }

  private:
    void pullCompleted();
    ReoptResult runJob(ReoptJob &job);

    TierConfig cfg_;
    opt::Optimizer fullOptimizer_;
    BackgroundQueue<ReoptJob, ReoptResult> queue_;

    /**
     * Start PCs with a job somewhere between enqueue and drain —
     * consulted by wantsReopt so a frame is never queued twice.
     * Sequencer-thread only.
     */
    FlatSet<uint32_t> inflight_;

    /** Drained-but-unpublished results (deferred while pinned). */
    std::deque<ReoptResult> inbox_;
    std::vector<ReoptResult> inbox_scratch_;
};

} // namespace replay::core

#endif // REPLAY_CORE_TIER_HH
