/**
 * @file
 * The frame constructor (§2, [13]).
 *
 * Consumes the retired instruction stream and synthesizes atomic
 * frames: dynamically biased conditional branches are converted into
 * assertions, internal unconditional jumps are retained (and later
 * removed as NOPs by the optimizer), and indirect jumps with stable
 * observed targets become value assertions so construction can
 * continue through returns.  Frames span 8 to 256 micro-operations.
 */

#ifndef REPLAY_CORE_CONSTRUCTOR_HH
#define REPLAY_CORE_CONSTRUCTOR_HH

#include <optional>
#include <vector>

#include "core/biastable.hh"
#include "core/frame.hh"
#include "trace/record.hh"
#include "uop/translator.hh"

namespace replay::core {

/** Construction parameters. */
struct ConstructorConfig
{
    unsigned minUops = 8;
    unsigned maxUops = 256;
    unsigned biasEntries = 4096;
    unsigned biasMinSamples = 32;
    unsigned biasPromoteNum = 60;   ///< promote at >= 15/16 bias
    unsigned biasPromoteDen = 64;
    unsigned targetEntries = 1024;
    unsigned targetStableThreshold = 8;
};

/**
 * A completed frame candidate.  Construction records only what decides
 * whether the candidate is kept (its span, its records, its size); the
 * uop body is built by FrameConstructor::materialize, and only for the
 * candidates the engine keeps.
 */
struct FrameCandidate
{
    uint32_t startPc = 0;
    uint32_t nextPc = 0;
    bool dynamicExit = false;   ///< ends with an unconverted JMPI
    /// The instruction whose observation closed this candidate is part
    /// of it (indirect-exit and loop-back-assert closures) rather than
    /// outside it (unbiased branch, size limit, long-flow closures).
    bool closedByIncludedInst = false;
    unsigned uopCount = 0;      ///< micro-ops in the (materialized) body
    std::vector<uint32_t> pcs;
    std::vector<uint8_t> instUops;  ///< micro-ops of each instruction
    unsigned numBlocks = 1;

    /** The observed instance (alias profiling, verification). */
    std::vector<trace::TraceRecord> records;

    /** The body's micro-ops; panics unless materialized. */
    const std::vector<uop::Uop> &uops() const;
    /** Block id of each micro-op; panics unless materialized. */
    const std::vector<uint16_t> &blocks() const;

  private:
    friend class FrameConstructor;

    /** Reset to pristine state, keeping vector capacity. */
    void clear();

    std::vector<uop::Uop> uops_;
    std::vector<uint16_t> blocks_;
};

/** Retired-stream frame synthesis. */
class FrameConstructor
{
  public:
    explicit FrameConstructor(ConstructorConfig cfg = {});

    /**
     * Observe one retired instruction whose decode flow has
     * @p num_uops micro-ops (the caller has decoded it already).
     * Returns a completed candidate when this instruction closed one
     * off (the instruction itself may have started a fresh
     * accumulation).
     */
    std::optional<FrameCandidate> observe(const trace::TraceRecord &rec,
                                          unsigned num_uops);

    /**
     * Build @p cand's uop body and block ids from its records: each
     * instruction's decode flow, with promoted branches turned into
     * assertions in the direction they went, indirect jumps into value
     * assertions on their target (except the final JMPI of a
     * dynamic-exit candidate), and each instruction's block id the
     * number of control instructions before it.
     */
    void materialize(FrameCandidate &cand);

    /** Discard the current accumulation (pipeline flush, redirect). */
    void abandon();

    /**
     * Return a consumed candidate's storage for reuse.  The sequencer
     * hands candidates back after depositing the frame so the
     * accumulate -> emit -> recycle cycle stops allocating once the
     * vectors reach their steady-state capacity.
     */
    void recycle(FrameCandidate &&cand);

    BiasTable &biasTable() { return bias_; }
    TargetTable &targetTable() { return targets_; }

    uint64_t candidatesEmitted() const { return emitted_; }
    uint64_t tooSmallDiscarded() const { return tooSmall_; }
    uint64_t candidatesMaterialized() const { return materialized_; }

  private:
    /** Close the accumulation; null if below the minimum size. */
    std::optional<FrameCandidate> finish(uint32_t next_pc,
                                         bool dynamic_exit,
                                         bool closed_by_included = false);

    /** Add one instruction of @p num_uops micro-ops to the accumulation. */
    void append(const trace::TraceRecord &rec, unsigned num_uops);

    ConstructorConfig cfg_;
    BiasTable bias_;
    TargetTable targets_;
    uop::Translator translator_;

    FrameCandidate acc_;
    FrameCandidate spare_;              ///< recycled candidate storage
    uint16_t curBlock_ = 0;
    uint64_t emitted_ = 0;
    uint64_t tooSmall_ = 0;
    uint64_t materialized_ = 0;
};

} // namespace replay::core

#endif // REPLAY_CORE_CONSTRUCTOR_HH
