/**
 * @file
 * The domain scheduler: the step loop of the GALS core, generic over
 * a set of clock-domain units (core/domain.hh) — four for a single
 * Processor, four per core for a Chip.
 *
 * Two kernels share one stepping order (time, then lowest *global*
 * domain index on ties — exactly the original simulator's tie-break,
 * which a chip extends core-major):
 *
 *  - the *reference* kernel steps every domain at every edge and is
 *    the bit-identity oracle (GALS_KERNEL=reference);
 *  - the *event* kernel keeps a keyed calendar (in the WakeFabric) of
 *    each domain's earliest-possible-work tick, parks domains whose
 *    bound is unknown until a port re-arms them, and consumes
 *    proven-idle edges in bulk.
 *
 * The scheduler owns clock advancement: when a pending period change
 * lands on a consumed edge it broadcasts the epoch bump through the
 * landing core's port (grid epochs are per core: only that core's
 * memoized extrapolations go stale), which wakes that core's sleeping
 * domains per the publication order rule.
 *
 * Multi-core runs stop when every core's progress counter reaches its
 * target; a finished core is halted — its domains are parked and
 * never stepped again — so the remaining cores finish their windows
 * under (slightly reduced) shared-L2 contention, the standard
 * multiprogrammed-throughput methodology.
 */

#ifndef GALS_CORE_SCHEDULER_HH
#define GALS_CORE_SCHEDULER_HH

#include <cstdint>

#include "clock/clock.hh"
#include "common/types.hh"
#include "core/domain.hh"
#include "core/ports.hh"

namespace gals
{

/** Stop condition of one core: run until *progress >= target. */
struct CoreProgress
{
    const std::uint64_t *progress;
    std::uint64_t target;
};

/** Steps a set of domain units in reference-equivalent order. */
class DomainScheduler
{
  public:
    /**
     * @param domains one unit per global domain index (core-major:
     *                core c's local domain d sits at c*kNumDomains+d).
     * @param clocks  the matching domain clocks, same indexing.
     * @param count   number of domains (a multiple of kNumDomains,
     *                <= kMaxSchedDomains).
     * @param fabric  the wake fabric (bounds + calendar keys).
     * @param epochs  per-domain pointer to the owning core's
     *                epoch-bump broadcast port (entries of one core
     *                repeat the same port).
     */
    DomainScheduler(Domain *const *domains, Clock *clocks, int count,
                    WakeFabric &fabric, EpochBumpPort *const *epochs);

    /** Event kernel: run until every core's progress (a counter
     * advanced by the core's own domains, e.g. committed
     * instructions) reaches its target. */
    void runEvent(const CoreProgress *cores, int ncores);

    /** Reference kernel: step every active domain at every edge. */
    void runReference(const CoreProgress *cores, int ncores);

    // Single-core conveniences (Processor).
    void runEvent(const std::uint64_t &progress, std::uint64_t target);
    void runReference(const std::uint64_t &progress,
                      std::uint64_t target);

  private:
    /** advance() + epoch-bump broadcast when a period change lands;
     * returns true when a change landed on the consumed edge. */
    bool advanceClock(int d);
    /** Consume proven-idle edges of domain d strictly below `t`. */
    void advanceClockWhileBelow(int d, Tick t);

    Domain *const *domains_;
    Clock *clocks_;
    int count_;
    WakeFabric &fabric_;
    EpochBumpPort *const *epochs_;
};

} // namespace gals

#endif // GALS_CORE_SCHEDULER_HH
