/**
 * @file
 * The GALS chip multiprocessor: N cores (1..kMaxCores), each
 * contributing its four domain units to one shared domain table with
 * per-core independent clocks, jitter streams and PLL
 * reconfiguration, composed around a shared banked L2 behind the
 * cross-core interconnect port.
 *
 * The chip is the multi-core composition root over exactly the
 * pieces the Processor uses for one core: a flat clock array (global
 * domain index = core * kNumDomains + local), one WakeFabric, one
 * DomainScheduler stepping all 4N domains in the reference tie-break
 * order (time, then lowest global index), and per-core EpochBumpPorts
 * (grid epochs are per core — a PLL re-lock stales only the landing
 * core's memoized extrapolations; the shared L2/memory level is
 * analytic in raw picoseconds and grid-free).
 *
 * With one core the chip routes through the same shared-L2 code but
 * arbitrates nothing (the interconnect is cross-core only), so its
 * RunStats are bit-identical to the standalone Processor — the N=1
 * equivalence gate the differential suite enforces.
 *
 * Multiprogrammed runs give each core its own workload (and its own
 * RNG streams: workload, clocks-jitter and PLL draws are all keyed so
 * core 0 reproduces the single-core streams exactly); a finished core
 * halts while the others complete their windows.
 */

#ifndef GALS_CMP_CHIP_HH
#define GALS_CMP_CHIP_HH

#include <memory>
#include <vector>

#include "cache/shared_l2.hh"
#include "clock/clock.hh"
#include "cmp/core.hh"
#include "core/processor.hh"
#include "core/scheduler.hh"

namespace gals
{

/** Chip description: the per-core machine plus the shared level. */
struct ChipConfig
{
    /** Machine description every core is built from. */
    MachineConfig machine;
    /** Cores on the chip (1..kMaxCores). */
    int cores = 1;
    /** Shared-L2 banking (line-interleaved). */
    int l2_banks = 4;
    /** Per-bank in-flight fill slots arbitrated across cores
     * (0 = unbounded). */
    int l2_bank_mshrs = 4;
    /** Bank busy window per request for cross-core arbitration. */
    Tick l2_bank_occupancy_ps = 600;
    /** Cross-core coherence latency: an invalidation published at t
     * delivers (and an ownership transfer settles) at t + this.
     * Active only when some workload declares a shared region. */
    Tick coh_delay_ps = 24'000;
};

/** Results of one chip run: per-core windows + chip-level totals. */
struct ChipRunStats
{
    /** Per-core measured-window statistics (suite order). */
    std::vector<RunStats> cores;

    // Chip-level aggregation.
    std::uint64_t total_committed = 0;
    /** Longest per-core window (the multiprogrammed makespan). */
    Tick makespan_ps = 0;
    /** Shared-L2 traffic over the whole run (all cores, lifetime). */
    std::uint64_t l2_accesses = 0;
    std::uint64_t l2_misses = 0;
    // Interconnect behavior (lifetime).
    std::uint64_t bank_conflicts = 0;
    std::uint64_t bank_mshr_waits = 0;
    std::uint64_t fill_merges = 0;
    // Coherence traffic (lifetime).
    std::uint64_t invalidations = 0;
    std::uint64_t ownership_transfers = 0;

    /** Always 0: chips step sequentially (docs/kernel.md, "Why
     * chips step sequentially"). Kept only because the host-speed
     * benchmark (galsbench/bench.cc) still reads it. */
    std::uint64_t parallel_rounds = 0;

    /** Chip throughput: committed instructions per makespan ns. */
    double
    throughputInstrsPerNs() const
    {
        return makespan_ps
                   ? static_cast<double>(total_committed) /
                         (static_cast<double>(makespan_ps) / 1000.0)
                   : 0.0;
    }
};

/** One configured chip executing one workload per core. */
class Chip
{
  public:
    /** `workloads.size()` must equal `config.cores`; use
     * multiprogrammedMix (workload/suite.hh) to build mixes whose
     * per-core RNG streams are independent. */
    Chip(const ChipConfig &config,
         const std::vector<WorkloadParams> &workloads);

    /** Run every core's warmup + measured window; return per-core and
     * chip-level statistics. */
    ChipRunStats run();

    /** Force a specific scheduler (tests; overrides GALS_KERNEL). */
    void setKernel(Processor::Kernel k) { kernel_ = k; }

    /** Deep structural invariant checks on every core (see
     * Processor::setInvariantCheckInterval). */
    void setInvariantCheckInterval(std::uint32_t every);

    Core &core(int i) { return *cores_[static_cast<size_t>(i)]; }
    const SharedL2 &sharedL2() const { return l2_; }

  private:
    ChipConfig cfg_;
    std::vector<Clock> clocks_;
    WakeFabric fabric_;
    SharedL2 l2_;
    InterconnectPort icp_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<Domain *> domain_table_;
    std::vector<EpochBumpPort *> epoch_table_;
    DomainScheduler scheduler_;

    Processor::Kernel kernel_;
};

} // namespace gals

#endif // GALS_CMP_CHIP_HH
