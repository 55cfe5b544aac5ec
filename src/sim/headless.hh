/**
 * @file
 * Headless frame-machine execution: the rePLay engine driven purely
 * architecturally, with no timing model.
 *
 * The FrameMachine runs a program the way the RPO hardware would
 * commit it: instructions retire either through the conventional path
 * (the trace record's architectural effects are applied directly) or
 * as whole atomic frames, in which case the *optimized frame body* is
 * executed with FrameExec against the machine's own register file and
 * memory image.  Because the conventional path replays reference
 * values from the trace, any divergence between this machine and the
 * plain functional executor originates in frame construction,
 * optimization, or frame execution — exactly the property the
 * differential fuzzing oracle (src/fuzz) exploits.
 */

#ifndef REPLAY_SIM_HEADLESS_HH
#define REPLAY_SIM_HEADLESS_HH

#include <vector>

#include "core/sequencer.hh"
#include "opt/frameexec.hh"
#include "trace/tracer.hh"
#include "uop/translator.hh"

namespace replay::sim {

/** One architectural step of the headless frame machine. */
struct MachineStep
{
    enum class Kind
    {
        CONVENTIONAL,   ///< one instruction retired off the trace
        FRAME,          ///< a whole frame committed atomically
        DONE,           ///< instruction budget exhausted
    };

    Kind kind = Kind::DONE;

    /** x86 instructions retired before this step. */
    uint64_t retiredBefore = 0;

    /** CONVENTIONAL: the retired record. */
    trace::TraceRecord record;

    // -- FRAME only ---------------------------------------------------
    core::FramePtr frame;

    /** The trace span the frame covered, in retirement order. */
    std::vector<trace::TraceRecord> span;

    /** Outcome of executing the optimized body against machine state. */
    opt::FrameExecResult result;

    /**
     * False when the body asserted or conflicted even though the trace
     * said the frame commits — an optimizer bug.  The machine then
     * retires the span conventionally so the caller can report the
     * divergence and keep running.
     */
    bool bodyCommitted = false;
};

/** Architectural-only driver of the rePLay engine. */
class FrameMachine
{
  public:
    FrameMachine(const x86::Program &program,
                 const core::EngineConfig &cfg, uint64_t max_insts);

    /** Retire one instruction or one whole frame. */
    MachineStep step();

    const opt::ArchState &state() const { return state_; }
    const x86::SparseMemory &memory() const { return mem_; }
    core::RePlayEngine &engine() { return engine_; }

    uint64_t retired() const { return retired_; }
    uint64_t framesCommitted() const { return framesCommitted_; }
    uint64_t framesAborted() const { return framesAborted_; }
    uint64_t frameInsts() const { return frameInsts_; }

  private:
    void applyConventional(const trace::TraceRecord &rec);

    trace::ExecutorTraceSource src_;
    core::RePlayEngine engine_;
    uop::Translator translator_;
    std::vector<uop::Uop> flow_;    ///< decode scratch
    opt::ArchState state_;
    x86::SparseMemory mem_;

    uint64_t maxInsts_;
    uint64_t retired_ = 0;
    uint64_t now_ = 0;
    uint64_t framesCommitted_ = 0;
    uint64_t framesAborted_ = 0;
    uint64_t frameInsts_ = 0;
};

} // namespace replay::sim

#endif // REPLAY_SIM_HEADLESS_HH
