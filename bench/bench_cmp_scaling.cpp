/**
 * @file
 * Host-side throughput of multi-core chip simulation versus core
 * count, plus the interconnect-pressure counters of each point. Useful for budgeting CMP sweep sizes and
 * watching the shared-L2 arbitration cost; not a paper experiment.
 *
 * Items == total committed instructions across all cores, so the
 * items/s column shows how much of the added simulation work the
 * event kernel absorbs as cores (and interconnect arbitration
 * traffic) grow.
 */

#include "bench_util.hh"

#include "cmp/chip.hh"
#include "workload/suite.hh"

using namespace gals;

namespace
{

std::vector<WorkloadParams>
mixFor(int cores)
{
    std::vector<WorkloadParams> suite = benchmarkSuite();
    std::vector<WorkloadParams> mix =
        multiprogrammedMix(suite, cores, 0);
    for (WorkloadParams &wl : mix) {
        wl.sim_instrs = 20'000;
        wl.warmup_instrs = 2'000;
    }
    return mix;
}

void
BM_ChipRun(benchmark::State &state)
{
    int cores = static_cast<int>(state.range(0));
    ChipConfig cc;
    cc.machine = MachineConfig::mcdProgram({});
    cc.cores = cores;
    std::vector<WorkloadParams> mix = mixFor(cores);

    std::uint64_t instrs = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t merges = 0;
    for (auto _ : state) {
        Chip chip(cc, mix);
        ChipRunStats s = chip.run();
        benchmark::DoNotOptimize(s.makespan_ps);
        instrs += s.total_committed;
        conflicts += s.bank_conflicts;
        merges += s.fill_merges;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
    state.counters["bank_conflicts"] = benchmark::Counter(
        static_cast<double>(conflicts),
        benchmark::Counter::kAvgIterations);
    state.counters["fill_merges"] = benchmark::Counter(
        static_cast<double>(merges),
        benchmark::Counter::kAvgIterations);
}
// Core counts from 1 to the 16-core ceiling.
BENCHMARK(BM_ChipRun)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

/** The contended corner: one bank, one fill slot per bank, so bank
 * conflicts and fill-slot waits sit on most L2 requests. */
void
BM_ChipRunContended(benchmark::State &state)
{
    int cores = static_cast<int>(state.range(0));
    ChipConfig cc;
    cc.machine = MachineConfig::mcdProgram({});
    cc.cores = cores;
    cc.l2_banks = 1;
    cc.l2_bank_mshrs = 1;
    cc.l2_bank_occupancy_ps = 900;
    std::vector<WorkloadParams> mix = mixFor(cores);

    std::uint64_t instrs = 0;
    for (auto _ : state) {
        Chip chip(cc, mix);
        ChipRunStats s = chip.run();
        benchmark::DoNotOptimize(s.makespan_ps);
        instrs += s.total_committed;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
}
BENCHMARK(BM_ChipRunContended)->Arg(2)->Arg(4);

} // namespace

int
main(int argc, char **argv)
{
    gals::benchBanner("Chip-multiprocessor host throughput",
                      "infrastructure measurement (items == total "
                      "committed instructions)");
    return runRegisteredBenchmarks(argc, argv);
}
