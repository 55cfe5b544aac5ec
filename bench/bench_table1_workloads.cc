/**
 * @file
 * Table 1: the experimental workload set — application type, paper
 * trace length, number of hot-spot traces, plus measured properties of
 * our synthesized stand-ins (code footprint, micro-op ratio).  The
 * per-workload decode measurements are independent, so they run across
 * the thread pool into indexed slots.
 */

#include "common.hh"

#include "uop/translator.hh"
#include "util/threadpool.hh"
#include "x86/executor.hh"

using namespace replay;

int
main()
{
    bench::banner("Table 1: Experimental Workload",
                  "Table 1, and the 1.4 uop/x86 ratio of Section 5.1.1");

    const auto &workloads = trace::standardWorkloads();

    struct Row
    {
        uint64_t codeBytes = 0;
        double ratio = 0;
    };
    std::vector<Row> rows(workloads.size());
    parallelFor(sim::defaultSweepJobs(), workloads.size(), [&](size_t i) {
        const auto prog = workloads[i].buildProgram(0);
        x86::Executor exec(prog);
        uop::Translator trans;
        uint64_t x86n = 0, uopn = 0;
        std::vector<uop::Uop> flow;
        x86::StepInfo info;
        for (unsigned step = 0; step < 30000; ++step) {
            exec.step(info);
            flow.clear();
            trans.translate(info.placed->inst, info.pc,
                            info.pc + info.placed->length, flow);
            ++x86n;
            uopn += flow.size();
        }
        rows[i] = Row{prog.codeBytes(), double(uopn) / double(x86n)};
    });

    TextTable table;
    table.header({"Name", "Type", "Total x86 Insts.", "Traces",
                  "code bytes", "uops/x86"});
    double total_ratio = 0;
    for (size_t i = 0; i < workloads.size(); ++i) {
        const auto &w = workloads[i];
        total_ratio += rows[i].ratio;
        table.row({w.name, trace::appTypeName(w.type),
                   std::to_string(w.paperInsts / 1000000) + "M",
                   std::to_string(w.numTraces),
                   std::to_string(rows[i].codeBytes),
                   TextTable::fixed(rows[i].ratio, 2)});
    }
    table.separator();
    table.row({"average", "", "", "", "",
               TextTable::fixed(total_ratio / double(workloads.size()),
                                2)});
    std::printf("%s\n", table.render().c_str());
    return 0;
}
