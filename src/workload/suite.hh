/**
 * @file
 * The benchmark suite: synthetic analogs of the 40 runs (32
 * applications) the paper evaluates — 16 MediaBench runs, 9 Olden
 * runs, and 15 SPEC2000 runs (Tables 6, 7, 8).
 *
 * Each descriptor's knobs are tuned to the application's published
 * character: e.g. adpcm is a tiny high-ILP kernel,
 * em3d is a memory-bound pointer chaser, gcc has a large instruction
 * and data footprint, apsi alternates data working sets between
 * phases, art cycles through ILP-distance regimes.
 *
 * Simulation windows are scaled down ~1000x from the paper's (120K to
 * 260K measured instructions) so the full Figure 6 study runs on a
 * laptop; phase periods are scaled proportionally.
 */

#ifndef GALS_WORKLOAD_SUITE_HH
#define GALS_WORKLOAD_SUITE_HH

#include <string>
#include <vector>

#include "workload/params.hh"

namespace gals
{

/** All 40 benchmark runs, in the paper's Figure 6 order. */
const std::vector<WorkloadParams> &benchmarkSuite();

/** Look up one benchmark by name; fatal when unknown. */
const WorkloadParams &findBenchmark(const std::string &name);

/**
 * The per-core stream of `wl` on core `core` of a chip. Core 0 is
 * `wl` unchanged — a single-core chip replays the single-core stream
 * bit-exactly — while higher cores get an independently re-seeded
 * copy (tagged "#cN"), so two cores running the same benchmark do not
 * execute in artificial lockstep.
 */
WorkloadParams perCoreWorkload(const WorkloadParams &wl, int core);

/**
 * A multiprogrammed mix for an N-core chip: `cores` benchmarks taken
 * from `suite` round-robin starting at index `rotation`, each routed
 * through perCoreWorkload for its core. Rotating through the suite
 * gives every pairing a deterministic name without a combinatorial
 * sweep.
 */
std::vector<WorkloadParams>
multiprogrammedMix(const std::vector<WorkloadParams> &suite, int cores,
                   int rotation);

/**
 * A sharing mix for an N-core chip: every core runs `base` (routed
 * through perCoreWorkload, with a per-core addr_offset keeping the
 * private footprints disjoint in the shared L2) plus data traffic
 * into the common coherent window at kSharedBase. `kind` selects the
 * communication pattern:
 *  - "producer-consumer": core 0 writes the window heavily, the
 *    others mostly read it — a steady stream of invalidations from
 *    one writer to many sharers;
 *  - "migratory": every core reads and writes the window in turn —
 *    ownership bounces between cores (the classic migratory-line
 *    pattern);
 *  - "lock": all cores hammer a handful of hot lines with stores —
 *    maximal invalidation pressure on minimal footprint, as lock and
 *    barrier words behave.
 */
std::vector<WorkloadParams>
sharingMix(const WorkloadParams &base, int cores,
           const std::string &kind);

} // namespace gals

#endif // GALS_WORKLOAD_SUITE_HH
