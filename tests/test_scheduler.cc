/**
 * @file
 * Scheduler efficiency tests: the event kernel on queue-starved
 * machines, and the kernel-efficiency counters.
 *
 * A full issue queue sleeps (IssueCluster::wakeBound drops the
 * dispatch-FIFO wake while the queue is full), so the 16-entry queues
 * of the mcdProgram({}) base machine are where a missing wake would
 * show first. These tests hold the event kernel bit-identical to the
 * reference oracle there, including phase-adaptive runs that shrink a
 * queue below its occupancy (full() with size() > capacity()), and
 * use the per-domain step counters to show that a full queue is no
 * longer polled.
 */

#include <gtest/gtest.h>

#include "cmp/chip.hh"
#include "harness.hh"
#include "obs/metrics.hh"

using namespace gals;
using namespace gals::harness;

namespace
{

/**
 * A machine whose issue queues are both 16 entries: the base
 * program-adaptive machine with random cache rows, jitter on odd
 * draws, and (half the time) a narrow back end that keeps the queues
 * full for longer.
 */
MachineConfig
starvedMachine(Pcg32 &rng, int i)
{
    MachineConfig m = MachineConfig::mcdProgram(
        {rng.nextRange(0, 3), rng.nextRange(0, 3), 0, 0});
    if (i % 2 == 1)
        m.jitter_sigma_ps = static_cast<double>(rng.nextRange(1, 25));
    if (rng.chance(0.5)) {
        m.issue_width = rng.nextRange(2, 4);
        m.int_alus = rng.nextRange(1, 2);
        m.fp_alus = rng.nextRange(1, 2);
        m.dispatch_fifo_entries = rng.nextRange(2, 16);
    }
    m.seed = rng.next();
    return m;
}

/**
 * A phase-adaptive machine that starts with large queues and an
 * aggressive controller, so it shrinks a queue to 16 entries while
 * more ops than that sit in it.
 */
MachineConfig
shrinkingMachine(Pcg32 &rng, int i)
{
    MachineConfig m = MachineConfig::mcdPhaseAdaptive();
    m.adaptive = {rng.nextRange(0, 3), rng.nextRange(0, 3), 3, 3};
    m.cache_interval_instrs =
        static_cast<std::uint64_t>(rng.nextRange(300, 1000));
    m.cache_persistence = 1;
    m.queue_persistence = 1;
    m.cache_hysteresis = 0.0;
    m.icache_hysteresis = 0.0;
    m.queue_hysteresis = 0.0;
    if (i % 2 == 1)
        m.jitter_sigma_ps = static_cast<double>(rng.nextRange(1, 25));
    m.seed = rng.next();
    return m;
}

/** One chip run under an explicit kernel; adds the run's issue-queue
 * shrinks below occupancy (all cores) to `*shrinks`. */
ChipRunStats
runChip(const ChipConfig &cc, const std::vector<WorkloadParams> &mix,
        Kernel kernel, std::uint64_t *shrinks = nullptr)
{
    Chip chip(cc, mix);
    chip.setKernel(kernel);
    ChipRunStats s = chip.run();
    for (int c = 0; shrinks != nullptr && c < cc.cores; ++c)
        *shrinks += chip.core(c).iqShrinksBelowOccupancy();
    return s;
}

/** Event ≡ reference on a one-core chip and on a 4-core chip of `m`;
 * returns the event runs' shrinks below occupancy. */
std::uint64_t
expectAgreeOnOneAndFourCores(Pcg32 &rng, const MachineConfig &m)
{
    std::uint64_t shrinks = 0;
    WorkloadParams wl = randomWorkload(rng);
    {
        SCOPED_TRACE("1 core: " + describe(m, wl));
        ChipConfig cc;
        cc.machine = m;
        ChipRunStats ev = runChip(cc, {wl}, Kernel::EventDriven,
                                  &shrinks);
        ChipRunStats ref = runChip(cc, {wl}, Kernel::Reference);
        expectSameChipStats(ev, ref);
    }
    ChipConfig cc = randomChipConfig(rng, 4);
    cc.machine = m;
    std::vector<WorkloadParams> mix = randomChipWorkloads(rng, 4);
    SCOPED_TRACE("4 cores: " + describe(m, mix[0]));
    ChipRunStats ev = runChip(cc, mix, Kernel::EventDriven, &shrinks);
    ChipRunStats ref = runChip(cc, mix, Kernel::Reference);
    expectSameChipStats(ev, ref);
    return shrinks;
}

} // namespace

TEST(QueueStarved, SixteenEntryQueuesEventMatchesReference)
{
    Pcg32 rng(0x5EA7ED16);
    for (int i = 0; i < 20; ++i) {
        MachineConfig m = starvedMachine(rng, i);
        SCOPED_TRACE("case " + std::to_string(i));
        expectAgreeOnOneAndFourCores(rng, m);
    }
}

TEST(QueueStarved, ShrinkBelowOccupancyEventMatchesReference)
{
    Pcg32 rng(0x5412C);
    std::uint64_t shrinks = 0;
    for (int i = 0; i < 8; ++i) {
        MachineConfig m = shrinkingMachine(rng, i);
        SCOPED_TRACE("case " + std::to_string(i));
        shrinks += expectAgreeOnOneAndFourCores(rng, m);
    }
    // The draws really reach the over-full state.
    EXPECT_GT(shrinks, 0u);
}

TEST(SchedCounters, FullQueueIsNotPolled)
{
    // gzip on the base machine keeps its 16-entry integer queue full
    // for much of the run. While the dispatch-FIFO front woke a full
    // queue, the integer domain stepped at every edge until a slot
    // freed: 118,015 integer steps for 135,000 committed instructions
    // (0.87 per instruction). With the FIFO wake dropped while the
    // queue is full the same run takes 73,416 (0.54); the bound sits
    // between the two.
    ChipConfig cc;
    cc.machine = MachineConfig::mcdProgram({});
    WorkloadParams wl = findBenchmark("gzip");
    obs::MetricsRegistry &m = obs::MetricsRegistry::instance();
    m.clear();
    Chip chip(cc, {wl});
    chip.setKernel(Kernel::EventDriven);
    chip.run();
    const std::uint64_t committed = wl.sim_instrs + wl.warmup_instrs;
    EXPECT_LT(m.value("chip.sched.steps.int"), committed * 6 / 10);
}

TEST(SchedCounters, CountersCoverEveryIteration)
{
    ChipConfig cc;
    cc.machine = MachineConfig::mcdPhaseAdaptive();
    cc.cores = 2;
    std::vector<WorkloadParams> mix =
        multiprogrammedMix(benchmarkSuite(), 2, 3);
    for (WorkloadParams &wl : mix) {
        wl.sim_instrs = 4'000;
        wl.warmup_instrs = 500;
    }
    obs::MetricsRegistry &m = obs::MetricsRegistry::instance();
    auto steps = [&]() {
        return m.value("chip.sched.steps.fe") +
               m.value("chip.sched.steps.int") +
               m.value("chip.sched.steps.fp") +
               m.value("chip.sched.steps.ls");
    };

    // The reference kernel steps at every iteration and skips none.
    m.clear();
    runChip(cc, mix, Kernel::Reference);
    const std::uint64_t ref_steps = steps();
    EXPECT_GT(ref_steps, 0u);
    EXPECT_EQ(m.value("chip.sched.iterations"), ref_steps);
    EXPECT_EQ(m.value("chip.sched.idle_skips"), 0u);

    // The event kernel's iterations are steps, skips and re-parks of
    // halted cores' domains; it steps far less than the reference.
    m.clear();
    runChip(cc, mix, Kernel::EventDriven);
    const std::uint64_t ev_steps = steps();
    EXPECT_GT(ev_steps, 0u);
    EXPECT_LT(ev_steps, ref_steps);
    EXPECT_GT(m.value("chip.sched.idle_skips"), 0u);
    EXPECT_GE(m.value("chip.sched.iterations"),
              ev_steps + m.value("chip.sched.idle_skips"));
}
