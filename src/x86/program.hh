/**
 * @file
 * A complete x86-subset program: code laid out at fixed addresses plus
 * initialized data segments.  Programs are produced by the AsmBuilder
 * (directly in tests/examples) or by the workload synthesizer, and are
 * consumed by the functional Executor.
 */

#ifndef REPLAY_X86_PROGRAM_HH
#define REPLAY_X86_PROGRAM_HH

#include <cstdint>
#include <vector>

#include "x86/inst.hh"

namespace replay::x86 {

/** An initialized data region. */
struct DataSegment
{
    uint32_t base = 0;
    std::vector<uint8_t> bytes;
};

/** Immutable program image. */
class Program
{
  public:
    /** A placed instruction. */
    struct Placed
    {
        uint32_t addr = 0;
        uint32_t length = 0;    ///< modeled x86 byte length
        Inst inst;
    };

    Program(std::vector<Placed> code, std::vector<DataSegment> data,
            uint32_t entry, uint32_t stack_top);

    /** Fetch the instruction at @p addr; fatal if none is placed there. */
    const Placed &
    at(uint32_t addr) const
    {
        const Placed *placed = find(addr);
        if (!placed) [[unlikely]]
            notPlaced(addr);
        return *placed;
    }

    /** True if an instruction starts at @p addr. */
    bool contains(uint32_t addr) const { return find(addr) != nullptr; }

    const std::vector<Placed> &code() const { return code_; }
    const std::vector<DataSegment> &data() const { return data_; }
    uint32_t entry() const { return entry_; }
    uint32_t stackTop() const { return stackTop_; }

    /** Total modeled code bytes (footprint seen by the ICache). */
    uint32_t codeBytes() const { return codeBytes_; }

  private:
    /** The instruction starting at @p addr, or null. */
    const Placed *
    find(uint32_t addr) const
    {
        const uint32_t off = addr - indexBase_;     // wraps below base
        if (off >= index_.size())
            return nullptr;
        const uint32_t slot = index_[off];
        return slot ? &code_[slot - 1] : nullptr;
    }

    [[noreturn]] void notPlaced(uint32_t addr) const;

    std::vector<Placed> code_;
    /// Dense address index over [indexBase_, highest instruction start]:
    /// 1 + the code_ position of the instruction starting there, or 0.
    /// Code is laid out contiguously, so this is one slot per code byte.
    std::vector<uint32_t> index_;
    uint32_t indexBase_ = 0;
    std::vector<DataSegment> data_;
    uint32_t entry_;
    uint32_t stackTop_;
    uint32_t codeBytes_ = 0;
};

} // namespace replay::x86

#endif // REPLAY_X86_PROGRAM_HH
