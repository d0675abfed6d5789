/**
 * @file
 * The adaptive GALS/MCD processor model: one configured machine
 * executing one synthetic benchmark.
 *
 * The simulator has one composition root, the Chip (cmp/chip.hh); a
 * Processor is a one-core Chip with the default ChipConfig, so its
 * L2 and memory are the chip's shared level (with one core the
 * interconnect arbitrates nothing). New code should call simulate()
 * (sim/simulation.hh) or build a Chip directly.
 */

#ifndef GALS_CORE_PROCESSOR_HH
#define GALS_CORE_PROCESSOR_HH

#include <utility>

#include "cmp/chip.hh"
#include "core/machine_config.hh"
#include "core/run_stats.hh"
#include "workload/params.hh"

namespace gals
{

/** One configured machine executing one synthetic benchmark. */
class Processor
{
  public:
    Processor(const MachineConfig &config, const WorkloadParams &wl)
        : chip_(ChipConfig{.machine = config, .cores = 1}, {wl})
    {}

    /** Run warmup + measured window; return window statistics. */
    RunStats run() { return std::move(chip_.run().cores[0]); }

  private:
    Chip chip_;
};

} // namespace gals

#endif // GALS_CORE_PROCESSOR_HH
