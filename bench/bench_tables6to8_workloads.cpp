/**
 * @file
 * Reproduces Tables 6, 7 and 8: the benchmark suites (MediaBench,
 * Olden, SPEC2000) with the paper's simulation windows and the scaled
 * windows used here, plus the synthetic character of each analog.
 * The registered benchmark measures workload-generation throughput.
 */

#include "bench_util.hh"

#include "common/logging.hh"
#include "common/table.hh"
#include "workload/generator.hh"
#include "workload/suite.hh"

using namespace gals;

namespace
{

void
printSuite(const char *title, const char *suite_name)
{
    TextTable t(title);
    t.setHeader({"benchmark", "paper window", "window here", "warmup",
                 "hot code", "stream", "rand pool", "fp", "phases"});
    for (const WorkloadParams &w : benchmarkSuite()) {
        if (w.suite != suite_name)
            continue;
        const PhaseParams &p = w.phases.front();
        t.addRow({w.name, w.paper_window,
                  csprintf("%lluK", static_cast<unsigned long long>(
                                        w.sim_instrs / 1000)),
                  csprintf("%lluK", static_cast<unsigned long long>(
                                        w.warmup_instrs / 1000)),
                  csprintf("%lluKB", static_cast<unsigned long long>(
                                         p.code_hot_bytes / 1024)),
                  csprintf("%lluKB", static_cast<unsigned long long>(
                                         p.stream_bytes / 1024)),
                  csprintf("%lluKB", static_cast<unsigned long long>(
                                         p.rand_bytes / 1024)),
                  csprintf("%.0f%%", 100.0 * p.fp_frac),
                  csprintf("%zu", w.phases.size())});
    }
    t.print();
    std::printf("\n");
}

void
printTables()
{
    benchBanner("Tables 6-8: benchmark applications",
                "paper Section 4, Tables 6, 7, 8 (synthetic analogs; "
                "windows scaled ~1000x, see workload/suite.hh)");
    printSuite("Table 6: MediaBench applications", "MediaBench");
    printSuite("Table 7: Olden applications", "Olden");
    printSuite("Table 8a: SPEC2000 integer applications",
               "SPEC2000-Int");
    printSuite("Table 8b: SPEC2000 floating-point applications",
               "SPEC2000-Fp");
}

void
BM_WorkloadGeneration(benchmark::State &state)
{
    SyntheticWorkload gen(findBenchmark("gcc"));
    std::uint64_t n = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.next());
        ++n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_WorkloadGeneration);

} // namespace

int
main(int argc, char **argv)
{
    printTables();
    return runRegisteredBenchmarks(argc, argv);
}
