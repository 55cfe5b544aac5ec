/**
 * @file
 * Trace generation: running a program through the functional executor
 * and exposing the retired-instruction stream as a TraceSource.
 */

#ifndef REPLAY_TRACE_TRACER_HH
#define REPLAY_TRACE_TRACER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/record.hh"
#include "x86/executor.hh"
#include "x86/program.hh"

namespace replay::trace {

/**
 * A TraceSource that generates records on demand from an Executor.
 *
 * The source maintains a ring of pre-executed records so the simulator
 * can resolve frame assertions and unsafe-store aliasing before
 * committing to a fetch path, without materializing the whole trace
 * (50M+ instructions in the paper's workloads).  When a peek or an
 * advance needs a record the ring does not hold, the whole ring is
 * topped up in one batch, each record executed straight into its slot.
 */
class ExecutorTraceSource : public TraceSource
{
  public:
    /**
     * @param program   the program to run
     * @param max_insts trace length in retired x86 instructions
     */
    ExecutorTraceSource(const x86::Program &program, uint64_t max_insts);

    /** A source that owns its program (Workload::openTrace). */
    ExecutorTraceSource(std::unique_ptr<const x86::Program> program,
                        uint64_t max_insts);

    const TraceRecord *peek(unsigned ahead = 0) override;
    void advance() override;
    bool done() override;
    uint64_t consumed() const override { return consumed_; }

    /**
     * The backing executor (read-only).  The first peek, advance or
     * done() runs it up to a whole ring (2 * LOOKAHEAD records) ahead
     * of the cursor, and later batches keep it up to that far ahead;
     * use it for initial-state snapshots before the first peek, not
     * for mid-trace state.
     */
    const x86::Executor &executor() const { return exec_; }

  private:
    /** Execute records into every free ring slot the budget allows. */
    void refill();

    std::unique_ptr<const x86::Program> owned_;  ///< null unless owning
    x86::Executor exec_;
    x86::StepInfo step_;        ///< reused by every executed record
    uint64_t budget_;           ///< records still allowed to be produced
    uint64_t consumed_ = 0;

    std::array<TraceRecord, LOOKAHEAD * 2> ring_;
    size_t head_ = 0;           ///< ring index of the cursor record
    size_t count_ = 0;          ///< valid records in the ring
};

/** Materialize the first @p max_insts records of a program (tests). */
std::vector<TraceRecord> collectTrace(const x86::Program &program,
                                      uint64_t max_insts);

} // namespace replay::trace

#endif // REPLAY_TRACE_TRACER_HH
