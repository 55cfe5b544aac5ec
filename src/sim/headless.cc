#include "sim/headless.hh"

#include <cstring>

#include "verify/online.hh"
#include "verify/static/hook.hh"

namespace replay::sim {

namespace {

/** Mirror the functional executor's initial architectural state. */
opt::ArchState
initialState(const x86::Executor &exec)
{
    opt::ArchState st;
    for (unsigned r = 0; r < x86::NUM_GPRS; ++r)
        st.regs[r] = exec.reg(static_cast<x86::Reg>(r));
    for (unsigned f = 0; f < x86::NUM_FREGS; ++f) {
        uint32_t raw;
        const float v = exec.freg(static_cast<x86::FReg>(f));
        std::memcpy(&raw, &v, 4);
        st.regs[unsigned(uop::fpr(static_cast<x86::FReg>(f)))] = raw;
    }
    st.flags = exec.flags();
    return st;
}

} // anonymous namespace

FrameMachine::FrameMachine(const x86::Program &program,
                           const core::EngineConfig &cfg,
                           uint64_t max_insts)
    : src_(program, max_insts), engine_(cfg),
      state_(initialState(src_.executor())), maxInsts_(max_insts)
{
    vstatic::maybeEnableStaticCheckFromEnv();
    for (const auto &seg : program.data())
        mem_.loadSegment(seg);
}

void
FrameMachine::applyConventional(const trace::TraceRecord &rec)
{
    verify::applyRecord(state_, rec);
    for (unsigned m = 0; m < rec.numMemOps; ++m) {
        const x86::MemOp &op = rec.memOps[m];
        if (op.isStore)
            mem_.write(op.addr, op.size, op.data);
    }
}

MachineStep
FrameMachine::step()
{
    MachineStep s;
    s.retiredBefore = retired_;
    if (retired_ >= maxInsts_)
        return s;
    const trace::TraceRecord *rec = src_.peek();
    if (!rec)
        return s;

    engine_.drainReady(now_);
    if (core::FramePtr frame = engine_.frameFor(rec->pc, now_)) {
        const auto outcome = core::resolveFrame(*frame, src_);
        if (outcome.kind == core::FrameOutcome::Kind::COMMITS) {
            s.kind = MachineStep::Kind::FRAME;
            s.frame = frame;
            s.span.reserve(frame->pcs.size());
            for (size_t i = 0; i < frame->pcs.size(); ++i)
                s.span.push_back(*src_.peek(unsigned(i)));

            s.result = opt::executeFrame(frame->body, state_, mem_);
            s.bodyCommitted = s.result.committed();
            if (!s.bodyCommitted) {
                // The trace committed but the body rolled back: an
                // optimizer bug the caller will report.  Retire the
                // span conventionally so execution stays coherent.
                for (const auto &r : s.span)
                    applyConventional(r);
            }

            engine_.frameCommitted(frame);
            for (size_t i = 0; i < frame->pcs.size(); ++i)
                src_.advance();
            retired_ += frame->pcs.size();
            frameInsts_ += frame->pcs.size();
            ++framesCommitted_;
            now_ += 1 + frame->body.numUops() / 8;
            return s;
        }
        engine_.frameAborted(frame, outcome);
        ++framesAborted_;
    }

    s.kind = MachineStep::Kind::CONVENTIONAL;
    s.record = *rec;
    applyConventional(*rec);
    flow_.clear();
    engine_.observeRetired(
        *rec, translator_.translate(rec->inst, rec->pc,
                                    rec->pc + rec->length, flow_),
        now_);
    src_.advance();
    ++retired_;
    ++now_;
    return s;
}

} // namespace replay::sim
