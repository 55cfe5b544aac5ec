#include "trace/tracer.hh"

#include "util/logging.hh"

namespace replay::trace {

ExecutorTraceSource::ExecutorTraceSource(const x86::Program &program,
                                         uint64_t max_insts)
    : exec_(program), budget_(max_insts)
{
}

ExecutorTraceSource::ExecutorTraceSource(
    std::unique_ptr<const x86::Program> program, uint64_t max_insts)
    : owned_(std::move(program)), exec_(*owned_), budget_(max_insts)
{
}

void
ExecutorTraceSource::refill()
{
    while (count_ < ring_.size() && budget_ > 0) {
        exec_.step(step_);
        TraceRecord::fromStep(step_,
                              ring_[(head_ + count_) % ring_.size()]);
        ++count_;
        --budget_;
    }
}

const TraceRecord *
ExecutorTraceSource::peek(unsigned ahead)
{
    panic_if(ahead >= LOOKAHEAD, "peek(%u) beyond lookahead", ahead);
    if (ahead >= count_)
        refill();
    if (ahead >= count_)
        return nullptr;
    return &ring_[(head_ + ahead) % ring_.size()];
}

void
ExecutorTraceSource::advance()
{
    if (count_ == 0)
        refill();
    panic_if(count_ == 0, "advance past end of trace");
    head_ = (head_ + 1) % ring_.size();
    --count_;
    ++consumed_;
}

bool
ExecutorTraceSource::done()
{
    if (count_ == 0)
        refill();
    return count_ == 0;
}

std::vector<TraceRecord>
collectTrace(const x86::Program &program, uint64_t max_insts)
{
    std::vector<TraceRecord> records(max_insts);
    x86::Executor exec(program);
    x86::StepInfo step;
    for (TraceRecord &rec : records) {
        exec.step(step);
        TraceRecord::fromStep(step, rec);
    }
    return records;
}

} // namespace replay::trace
