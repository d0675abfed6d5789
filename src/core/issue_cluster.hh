/**
 * @file
 * An execution-cluster domain unit: one issue queue with its
 * push-based ready list, a function-unit pool, and the cluster's own
 * queue-size controller. The integer and floating-point domains are
 * two instances of this class; memory ops issue their
 * address-generation uop from the integer instance and hand off to
 * the load/store unit through the agen port.
 */

#ifndef GALS_CORE_ISSUE_CLUSTER_HH
#define GALS_CORE_ISSUE_CLUSTER_HH

#include "control/queue_controller.hh"
#include "core/domain.hh"
#include "core/machine_config.hh"
#include "core/structures.hh"

namespace gals
{

struct CorePorts;
class DispatchPort;
class CompletionPort;
class RedirectPort;
class AgenPort;
class ReconfigUnit;

/** Integer or floating-point execution cluster. */
class IssueCluster final : public Domain
{
  public:
    /**
     * @param cur_index  the live configuration index of this
     *                   cluster's queue (a stable reference into the
     *                   core's AdaptiveConfig).
     */
    IssueCluster(DomainId id, const MachineConfig &cfg,
                 CoreTiming &timing, Rob &rob, RegisterFiles &regs,
                 const int &cur_index);

    /** Connect ports and the reconfiguration unit (once). */
    void wire(CorePorts &ports, ReconfigUnit &reconfig);

    Tick step(Tick now) override;
    Tick wakeBound() const override;

    /** Queue-size controller sample (invoked from the front end's
     * rename, where the ILP tracker lives). */
    void control(const IlpSample &sample, Tick now,
                 std::uint64_t committed);

    /** Resize the issue queue (ReconfigUnit). Occupancy above a
     * smaller capacity drains naturally. */
    void
    setIqCapacity(int entries)
    {
        if (iq_.size() > static_cast<size_t>(entries))
            ++shrinks_below_occupancy_;
        iq_.setCapacity(entries);
    }

    /** Resizes that left the queue over capacity (full() while
     * size() > capacity(); the differential tests require some). */
    std::uint64_t shrinksBelowOccupancy() const
    {
        return shrinks_below_occupancy_;
    }

    IssueQueue &iq() { return iq_; }
    const IssueQueue &iq() const { return iq_; }

  private:
    const MachineConfig &cfg_;
    Rob &rob_;
    RegisterFiles &regs_;
    const int &cur_index_;
    const Structure structure_;

    IssueQueue iq_;
    FuPool fu_;
    /**
     * Per-queue epoch tag of the ready-list timing state: ready_at
     * values and the timer-ring order extrapolate clock grids, so a
     * mismatch with the core epoch forces invalidateTimes at the next
     * step (the one O(queue) path left in the back end).
     */
    std::uint32_t iq_epoch_ = 1;
    std::uint64_t shrinks_below_occupancy_ = 0;

    QueueController qctl_;
    Damper damper_;

    // Wired peers.
    DispatchPort *disp_ = nullptr;
    CompletionPort *completion_ = nullptr;
    RedirectPort *redirect_ = nullptr;
    AgenPort *agen_ = nullptr;
    ReconfigUnit *reconfig_ = nullptr;
};

} // namespace gals

#endif // GALS_CORE_ISSUE_CLUSTER_HH
