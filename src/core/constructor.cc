#include "core/constructor.hh"

#include "util/logging.hh"

namespace replay::core {

using trace::TraceRecord;
using uop::Op;
using uop::Uop;
using x86::Mnem;

FrameConstructor::FrameConstructor(ConstructorConfig cfg)
    : cfg_(cfg),
      bias_(cfg.biasEntries, cfg.biasMinSamples, cfg.biasPromoteNum,
            cfg.biasPromoteDen),
      targets_(cfg.targetEntries, cfg.targetStableThreshold)
{
}

const std::vector<Uop> &
FrameCandidate::uops() const
{
    panic_if(uops_.size() != uopCount,
             "candidate at 0x%08x read before materialize()", startPc);
    return uops_;
}

const std::vector<uint16_t> &
FrameCandidate::blocks() const
{
    panic_if(blocks_.size() != uopCount,
             "candidate at 0x%08x read before materialize()", startPc);
    return blocks_;
}

void
FrameCandidate::clear()
{
    startPc = 0;
    nextPc = 0;
    dynamicExit = false;
    closedByIncludedInst = false;
    uopCount = 0;
    numBlocks = 1;
    pcs.clear();
    instUops.clear();
    records.clear();
    uops_.clear();
    blocks_.clear();
}

namespace {

bool
isIndirect(const x86::Inst &in)
{
    return (in.mnem == Mnem::JMP && in.form != x86::Form::REL) ||
           (in.mnem == Mnem::CALL && in.form != x86::Form::REL) ||
           in.mnem == Mnem::RET;
}

} // anonymous namespace

void
FrameConstructor::abandon()
{
    acc_.clear();
    curBlock_ = 0;
}

void
FrameConstructor::recycle(FrameCandidate &&cand)
{
    cand.clear();
    spare_ = std::move(cand);
}

std::optional<FrameCandidate>
FrameConstructor::finish(uint32_t next_pc, bool dynamic_exit,
                         bool closed_by_included)
{
    if (acc_.uopCount == 0) {
        abandon();
        return std::nullopt;
    }
    if (acc_.uopCount < cfg_.minUops) {
        ++tooSmall_;
        abandon();
        return std::nullopt;
    }
    FrameCandidate out = std::move(acc_);
    out.nextPc = next_pc;
    out.dynamicExit = dynamic_exit;
    out.closedByIncludedInst = closed_by_included;
    out.numBlocks = curBlock_ + 1;
    // Refill the accumulator from the recycle slot so the moved-out
    // buffers are replaced by warmed-up ones instead of empty ones.
    acc_ = std::move(spare_);
    spare_ = FrameCandidate{};
    abandon();
    ++emitted_;
    return out;
}

void
FrameConstructor::append(const TraceRecord &rec, unsigned num_uops)
{
    if (acc_.uopCount == 0)
        acc_.startPc = rec.pc;
    acc_.uopCount += num_uops;
    acc_.pcs.push_back(rec.pc);
    acc_.instUops.push_back(uint8_t(num_uops));
    acc_.records.push_back(rec);
}

void
FrameConstructor::materialize(FrameCandidate &cand)
{
    cand.uops_.clear();
    cand.blocks_.clear();
    uint16_t block = 0;
    const size_t n = cand.records.size();
    for (size_t i = 0; i < n; ++i) {
        const TraceRecord &rec = cand.records[i];
        const x86::Inst &in = rec.inst;
        const size_t first = cand.uops_.size();
        translator_.translate(in, rec.pc, rec.pc + rec.length, cand.uops_);
        for (size_t k = first; k < cand.uops_.size(); ++k)
            cand.uops_[k].instIdx = uint16_t(i);
        cand.blocks_.resize(cand.uops_.size(), block);

        if (in.isCondBranch()) {
            // Every branch inside a candidate was promoted: it asserts
            // the branch keeps going the way it went.
            Uop &br = cand.uops_.back();
            panic_if(br.op != Op::BR, "branch flow must end in BR");
            br.op = Op::ASSERT;
            br.cc = rec.taken ? br.cc : x86::invert(br.cc);
            br.target = 0;
        } else if (isIndirect(in) && !(cand.dynamicExit && i + 1 == n)) {
            // A stable target observe() converted: a value assertion
            // on the jump target (§3.3).
            Uop &jmpi = cand.uops_.back();
            panic_if(jmpi.op != Op::JMPI, "indirect flow must end in JMPI");
            jmpi.op = Op::ASSERT;
            jmpi.cc = x86::Cond::E;
            jmpi.valueAssert = true;
            jmpi.assertOp = Op::CMP;
            jmpi.imm = int32_t(rec.nextPc);
        }
        if (in.isControl())
            ++block;
    }
    panic_if(cand.uops_.size() != cand.uopCount,
             "candidate at 0x%08x materialized %zu of %u micro-ops",
             cand.startPc, cand.uops_.size(), cand.uopCount);
    ++materialized_;
}

std::optional<FrameCandidate>
FrameConstructor::observe(const TraceRecord &rec, unsigned num_uops)
{
    const x86::Inst &in = rec.inst;

    // ---- learning ------------------------------------------------------
    if (in.isCondBranch())
        bias_.record(rec.pc, rec.taken);
    const bool is_indirect = isIndirect(in);
    if (is_indirect)
        targets_.record(rec.pc, rec.nextPc);

    // ---- hard frame terminators ------------------------------------------
    if (in.mnem == Mnem::LONGFLOW)
        return finish(rec.pc, false);

    // ---- size limit ------------------------------------------------------
    std::optional<FrameCandidate> completed;
    if (acc_.uopCount + num_uops > cfg_.maxUops)
        completed = finish(rec.pc, false);

    // ---- conditional branches -------------------------------------------
    if (in.isCondBranch()) {
        const BranchBias bb = bias_.classify(rec.pc);
        const bool promotable =
            (bb == BranchBias::BIASED_TAKEN && rec.taken) ||
            (bb == BranchBias::BIASED_NOT_TAKEN && !rec.taken);
        if (!promotable) {
            // End the frame before the unbiased branch; the branch is
            // not part of any frame.
            auto before = finish(rec.pc, false);
            return completed ? completed : before;
        }
        // Promote: the BR micro-op becomes an assertion that the
        // branch keeps going the biased way (see materialize()).
        const bool backward = rec.taken && in.target <= rec.pc;
        append(rec, num_uops);
        ++curBlock_;
        if (backward) {
            // Loop back-edge: close the frame here so loop frames
            // align to whole iterations.  The frame's successor is its
            // own start (the loop head), so committed loop frames
            // refetch back-to-back from the frame cache, and the
            // assertion fires only on the exit iteration.
            auto done = finish(rec.nextPc, false, true);
            return completed ? completed : done;
        }
        return completed;
    }

    // ---- indirect jumps ---------------------------------------------------
    if (is_indirect) {
        const uint32_t stable = targets_.stableTarget(rec.pc);
        if (stable != 0 && stable == rec.nextPc) {
            // Convert to a value assertion on the jump target and keep
            // building through the return (§3.3; see materialize()).
            append(rec, num_uops);
            ++curBlock_;
            return completed;
        }
        // Unstable target: the frame ends *with* the indirect jump
        // (the Figure 2 frame ends with "jump (ET2)").
        append(rec, num_uops);
        auto done = finish(rec.nextPc, true, true);
        return completed ? completed : done;
    }

    // ---- direct jumps and calls continue the frame -------------------------
    append(rec, num_uops);
    if (in.isControl())
        ++curBlock_;
    return completed;
}

} // namespace replay::core
