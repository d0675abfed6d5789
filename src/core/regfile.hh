/**
 * @file
 * Register renaming state: the logical-to-physical map, the physical
 * free lists, and the scoreboard of completion times.
 *
 * The scoreboard stores, per physical register, the absolute time the
 * value is produced and the domain producing it; cross-domain
 * consumers apply the synchronizer rule to that time (done in the
 * processor, which owns the clocks). Logical registers 0 (integer)
 * and 32 (floating-point) are hard-wired always-ready zeros.
 */

#ifndef GALS_CORE_REGFILE_HH
#define GALS_CORE_REGFILE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "workload/uop.hh"

namespace gals
{

/** A renamed physical register reference. */
struct PhysRef
{
    std::int16_t index = -1; //!< physical index; -1 = always ready.
    bool fp = false;         //!< which physical file.
};

/** Completion state of one physical register. */
struct PhysRegState
{
    bool pending = false;            //!< a producer is in flight.
    Tick ready_at = 0;               //!< production time.
    DomainId producer = DomainId::FrontEnd;
};

/** Rename map + free lists + scoreboard for both register files. */
class RegisterFiles
{
  public:
    RegisterFiles(int phys_int, int phys_fp);

    /** True when a destination of the given type can be renamed. */
    bool canAlloc(bool fp) const;

    /** Current physical mapping of a logical register. */
    PhysRef lookup(int logical) const;

    /**
     * Rename a destination: allocate a new physical register, update
     * the map, and return {new, previous} physical refs. The previous
     * mapping is freed when the op retires.
     */
    std::pair<PhysRef, PhysRef> renameDest(int logical);

    /** Release a physical register (at retire, the old mapping). */
    void release(PhysRef ref);

    /** Mark a physical register pending (at rename). */
    void markPending(PhysRef ref);

    /** Record production time and producing domain (at issue). */
    void complete(PhysRef ref, Tick when, DomainId producer);

    /** Scoreboard entry for a physical register. */
    const PhysRegState &state(PhysRef ref) const;

    int freeIntRegs() const
    {
        return static_cast<int>(free_int_.size());
    }
    int freeFpRegs() const { return static_cast<int>(free_fp_.size()); }

    /**
     * Structural consistency of the rename state (the differential
     * harness's per-stage invariant): the rename map is a subset of
     * the free-list complement — no mapped physical register appears
     * in a free list, no register is mapped or freed twice, and
     * occupancy stays within the physical file sizes.
     */
    bool checkConsistent() const;

  private:
    std::vector<PhysRegState> int_state_;
    std::vector<PhysRegState> fp_state_;
    std::vector<std::int16_t> free_int_;
    std::vector<std::int16_t> free_fp_;
    /** Logical (0..63) to physical map; index -1 for the zero regs. */
    std::vector<PhysRef> map_;
};

} // namespace gals

#endif // GALS_CORE_REGFILE_HH
