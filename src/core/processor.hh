/**
 * @file
 * The adaptive GALS/MCD processor model — the single-core composition
 * root of the domain/port architecture.
 *
 * The per-core machinery (four independently clocked domain units
 * behind the typed port layer, PLL reconfiguration, statistics) lives
 * in cmp/core.hh; this class owns what a composition root owns: the
 * flat clock array, the WakeFabric, and the DomainScheduler stepping
 * the core's domain table. The Chip (cmp/chip.hh) is the multi-core
 * root over the same pieces — one fabric, one scheduler, N cores and
 * a shared banked L2 behind the interconnect port.
 *
 * Fetch is oracle-driven: a mispredicted branch halts fetch until it
 * resolves in the integer domain, so the flush penalty (front-end
 * depth + dispatch depth + synchronization) is paid in time without
 * modeling wrong-path instructions.
 */

#ifndef GALS_CORE_PROCESSOR_HH
#define GALS_CORE_PROCESSOR_HH

#include <array>

#include "clock/clock.hh"
#include "cmp/core.hh"
#include "core/machine_config.hh"
#include "core/ports.hh"
#include "core/run_stats.hh"
#include "core/scheduler.hh"

namespace gals
{

/** One configured machine executing one synthetic benchmark. */
class Processor
{
  public:
    /** Which main-loop scheduler run() uses. */
    enum class Kernel
    {
        /** Event-driven: idle domains skip edges (the default). */
        EventDriven,
        /**
         * Step every domain at every edge, as the original simulator
         * did. Kept as the bit-identical oracle for the event kernel
         * (see docs/kernel.md); also selectable with
         * GALS_KERNEL=reference.
         */
        Reference,
    };

    Processor(const MachineConfig &config, const WorkloadParams &wl);

    /** Run warmup + measured window; return window statistics. */
    RunStats run();

    /** Force a specific scheduler (tests; overrides GALS_KERNEL). */
    void setKernel(Kernel k) { kernel_ = k; }

    /** Current structure configuration (changes in phase mode). */
    const AdaptiveConfig &currentConfig() const
    {
        return core_.currentConfig();
    }

    /**
     * Run deep structural invariant checks (rename map vs free lists,
     * ROB age order, fetch-group accounting, LSQ index consistency)
     * every `every` front-end steps; 0 disables (the default). The
     * differential harness turns this on.
     */
    void setInvariantCheckInterval(std::uint32_t every)
    {
        core_.setInvariantCheckInterval(every);
    }

    /** Panics with a description on any violated invariant. */
    void validateInvariants() const { core_.validateInvariants(); }

    /** Read GALS_KERNEL (reference|event); EventDriven otherwise. */
    static Kernel kernelFromEnv();

  private:
    std::array<Clock, 4> clocks_;
    WakeFabric fabric_;
    Core core_;
    std::array<Domain *, 4> domain_table_;
    std::array<EpochBumpPort *, 4> epoch_table_;
    DomainScheduler scheduler_;

    Kernel kernel_ = Kernel::EventDriven;
};

} // namespace gals

#endif // GALS_CORE_PROCESSOR_HH
