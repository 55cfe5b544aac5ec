#include "x86/program.hh"

#include <algorithm>

#include "util/logging.hh"

namespace replay::x86 {

Program::Program(std::vector<Placed> code, std::vector<DataSegment> data,
                 uint32_t entry, uint32_t stack_top)
    : code_(std::move(code)), data_(std::move(data)), entry_(entry),
      stackTop_(stack_top)
{
    if (!code_.empty()) {
        const auto [lo, hi] = std::minmax_element(
            code_.begin(), code_.end(),
            [](const Placed &a, const Placed &b) { return a.addr < b.addr; });
        indexBase_ = lo->addr;
        index_.assign(size_t(hi->addr - lo->addr) + 1, 0);
    }
    for (size_t i = 0; i < code_.size(); ++i) {
        uint32_t &slot = index_[code_[i].addr - indexBase_];
        panic_if(slot != 0, "two instructions placed at 0x%08x",
                 code_[i].addr);
        slot = uint32_t(i) + 1;
        codeBytes_ += code_[i].length;
    }
    fatal_if(!contains(entry_), "program entry 0x%08x has no instruction",
             entry_);
}

void
Program::notPlaced(uint32_t addr) const
{
    fatal("execution reached 0x%08x where no instruction is placed", addr);
}

} // namespace replay::x86
