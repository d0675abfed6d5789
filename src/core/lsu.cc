#include "core/lsu.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/ports.hh"
#include "core/reconfig.hh"
#include "timing/frequency_model.hh"

namespace gals
{

namespace
{

constexpr std::uint64_t KB = 1024;

} // namespace

LoadStoreUnit::LoadStoreUnit(const MachineConfig &cfg,
                             const AdaptiveConfig &cur_cfg,
                             CoreTiming &timing, Rob &rob,
                             InterconnectPort *icp, int core_index)
    : Domain(DomainId::LoadStore, timing), cfg_(cfg),
      cur_cfg_(cur_cfg), rob_(rob), lsq_(cfg.lsq_entries),
      memory_(kMemFirstChunkNs, kMemNextChunkNs, 64, 8),
      mshr_busy_(static_cast<size_t>(cfg.mshrs), 0), icp_(icp),
      core_index_(core_index)
{
    const DCachePairConfig &dc = dcachePairConfig(cur_cfg_.dcache);
    if (cfg_.mode == ClockingMode::MCD) {
        l1d_ = std::make_unique<AccountingCache>("l1d", 256 * KB, 8);
        l1d_->setPartition(dc.l1_adapt.assoc, cfg_.phase_adaptive);
    } else {
        l1d_ = std::make_unique<AccountingCache>(
            "l1d", dc.l1_opt.size_bytes, dc.l1_opt.assoc);
        l1d_->setPartition(dc.l1_opt.assoc, false);
    }
    // The private L2 exists only in the private hierarchy; a core
    // built for a chip reaches the shared banked L2 through the
    // interconnect port instead (constructing a dead 2MB tag/MRU
    // array per core would dominate chip construction).
    if (icp_ == nullptr) {
        if (cfg_.mode == ClockingMode::MCD) {
            l2_ = std::make_unique<AccountingCache>("l2", 2048 * KB,
                                                    8);
            l2_->setPartition(dc.l2_adapt.assoc,
                              cfg_.phase_adaptive);
        } else {
            l2_ = std::make_unique<AccountingCache>(
                "l2", dc.l2_opt.size_bytes, dc.l2_opt.assoc);
            l2_->setPartition(dc.l2_opt.assoc, false);
        }
    }
}

void
LoadStoreUnit::wire(CorePorts &ports, ReconfigUnit &reconfig)
{
    disp_ = &ports.disp_ls;
    completion_ = &ports.completion;
    sb_ = &ports.store_buffer;
    store_ready_ = &ports.store_ready;
    agen_ = &ports.agen;
    reconfig_ = &reconfig;
}

std::uint64_t
LoadStoreUnit::l2TotalAccesses() const
{
    return icp_ != nullptr ? icp_->accesses(core_index_)
                           : l2_->totalAccesses();
}

std::uint64_t
LoadStoreUnit::l2TotalMisses() const
{
    return icp_ != nullptr ? icp_->misses(core_index_)
                           : l2_->totalMisses();
}

std::uint64_t
LoadStoreUnit::l2TotalBHits() const
{
    return icp_ != nullptr ? icp_->bHits(core_index_)
                           : l2_->totalBHits();
}

// ---------------------------------------------------------------------
// Reconfiguration and control.
// ---------------------------------------------------------------------

void
LoadStoreUnit::applyDCache(int target)
{
    const DCachePairConfig &dc = dcachePairConfig(target);
    l1d_->setPartition(dc.l1_adapt.assoc, cfg_.phase_adaptive);
    if (icp_ != nullptr)
        icp_->reconfigure(core_index_, target);
    else
        l2_->setPartition(dc.l2_adapt.assoc, cfg_.phase_adaptive);
}

CacheDecision
LoadStoreUnit::decideDCache() const
{
    const IntervalCounts &l2i = icp_ != nullptr
                                    ? icp_->interval(core_index_)
                                    : l2_->interval();
    return chooseDCachePair(l1d_->interval(), l2i,
                            memoryLineFillPs());
}

void
LoadStoreUnit::resetDCacheIntervals()
{
    l1d_->resetInterval();
    if (icp_ != nullptr)
        icp_->resetInterval(core_index_);
    else
        l2_->resetInterval();
}

void
LoadStoreUnit::voteDCache(const CacheDecision &dd, Tick now,
                          std::uint64_t committed)
{
    int prop =
        cacheClearlyBetter(dd, cur_cfg_.dcache, cfg_.cache_hysteresis)
            ? dd.best_index
            : cur_cfg_.dcache;
    if (damp_dcache_.vote(prop, cur_cfg_.dcache,
                          cfg_.cache_persistence)) {
        reconfig_->request(Structure::DCachePair, prop, now,
                           committed);
    }
}

// ---------------------------------------------------------------------
// Data hierarchy timing.
// ---------------------------------------------------------------------

Tick
LoadStoreUnit::serveIcacheFill(Addr pc, Tick t_req,
                               const DCachePairConfig &dc, Tick now)
{
    Tick ls_period = timing_.clock(DomainId::LoadStore).period();
    if (icp_ != nullptr) {
        return icp_
            ->requestIcacheLine(core_index_, pc, t_req, ls_period,
                                now)
            .done;
    }
    AccessOutcome out = l2_->access(pc);
    switch (out.where) {
      case HitWhere::APartition:
        return t_req + static_cast<Tick>(dc.l2_a_lat) * ls_period;
      case HitWhere::BPartition:
        return t_req +
               static_cast<Tick>(dc.l2_a_lat + dc.l2_b_lat) *
                   ls_period;
      default: {
        int probe = dc.l2_a_lat +
                    (l2_->bEnabled() && dc.l2_b_lat > 0 ? dc.l2_b_lat
                                                        : 0);
        return memory_.issueFill(
            t_req + static_cast<Tick>(probe) * ls_period);
      }
    }
}

Tick
LoadStoreUnit::dataHierarchyTime(Addr addr, Tick now)
{
    const DCachePairConfig &dc = dcachePairConfig(cur_cfg_.dcache);
    Tick period = timing_.clock(DomainId::LoadStore).period();
    bool b_on = l1d_->bEnabled();

    AccessOutcome l1 = l1d_->access(addr);
    if (l1.where == HitWhere::APartition)
        return now + static_cast<Tick>(dc.l1_a_lat) * period;
    if (l1.where == HitWhere::BPartition) {
        return now +
               static_cast<Tick>(dc.l1_a_lat + dc.l1_b_lat) * period;
    }

    Tick probe = static_cast<Tick>(
        dc.l1_a_lat + (b_on && dc.l1_b_lat > 0 ? dc.l1_b_lat : 0));

    if (icp_ != nullptr) {
        // Shared hierarchy: the interconnect port arbitrates the
        // banked L2 and the shared memory channel; the private MSHR
        // is still claimed for the fill (the caller verified one is
        // free), exactly as on the private path.
        L2Reply r = icp_->requestLine(core_index_, addr,
                                      now + probe * period, period,
                                      now);
        if (!r.hit)
            claimMshr(now, r.done);
        return r.done;
    }

    AccessOutcome l2 = l2_->access(addr);
    if (l2.where == HitWhere::APartition) {
        return now + (probe + static_cast<Tick>(dc.l2_a_lat)) * period;
    }
    if (l2.where == HitWhere::BPartition) {
        return now + (probe + static_cast<Tick>(dc.l2_a_lat +
                                                dc.l2_b_lat)) *
                         period;
    }
    Tick l2_probe = static_cast<Tick>(
        dc.l2_a_lat +
        (l2_->bEnabled() && dc.l2_b_lat > 0 ? dc.l2_b_lat : 0));
    Tick issue_at = now + (probe + l2_probe) * period;
    Tick done = memory_.issueFill(issue_at);
    claimMshr(now, done);
    return done;
}

void
LoadStoreUnit::claimMshr(Tick now, Tick done)
{
    // Claim the MSHR slot the caller verified was free.
    for (Tick &slot : mshr_busy_) {
        if (slot <= now) {
            slot = done;
            mshr_min_free_ = mshr_busy_[0];
            for (Tick s : mshr_busy_)
                mshr_min_free_ = std::min(mshr_min_free_, s);
            return;
        }
    }
    panic("data hierarchy access without a free MSHR");
}

// ---------------------------------------------------------------------
// LSQ walks.
// ---------------------------------------------------------------------

/**
 * Memoized load/store-domain visibility of an entry's address
 * generation; false while the agen uop is unissued or not yet
 * visible here.
 */
bool
LoadStoreUnit::agenVisible(LsqEntry &entry, const InFlightOp &op,
                           Tick now)
{
    if (op.agen_done == kTickMax)
        return false;
    if (entry.agen_vis == kTickMax ||
        entry.agen_vis_epoch != timing_.epoch()) {
        entry.agen_vis = timing_.visibleAt(
            op.agen_done, DomainId::Integer, DomainId::LoadStore);
        entry.agen_vis_epoch = timing_.epoch();
    }
    return entry.agen_vis <= now;
}

LoadStoreUnit::LoadStart
LoadStoreUnit::tryStartLoad(LsqEntry &entry, Tick now,
                            int &ports_used, std::uint64_t &blocker)
{
    InFlightOp &op = rob_[entry.rob_idx];

    // Memory disambiguation against older stores (exact, since all
    // addresses are known at rename): blocked while any older
    // same-line store lacks its data; forward once all (at least one)
    // have it. The per-line index replaces the seed's scan over every
    // older queue entry.
    Lsq::OlderStores older =
        lsq_.olderStores(entry.line_addr, entry.id, &blocker);
    if (older == Lsq::OlderStores::Blocked)
        return LoadStart::Blocked; // wait for the store's data.
    bool forward = older == Lsq::OlderStores::AllReady ||
                   sb_->hasLine(entry.line_addr);

    Tick done;
    if (forward) {
        done = now + timing_.clock(DomainId::LoadStore).period();
    } else {
        // Conservatively require a free MSHR before starting an
        // access that might miss.
        if (mshr_min_free_ > now)
            return LoadStart::MshrBusy;
        done = dataHierarchyTime(op.uop.mem_addr, now);
    }

    entry.issued = true;
    op.complete_at = done;
    completion_->complete(op.pdst, done, DomainId::LoadStore,
                          entry.rob_idx, now);
    ++ports_used;
    return LoadStart::Issued;
}

void
LoadStoreUnit::drainStoreBuffer(Tick now, int &ports_used,
                                int max_ports)
{
    while (ports_used < max_ports && !sb_->empty()) {
        StoreWrite &w = sb_->front();
        if (w.ready_at > now)
            break;
        if (mshr_min_free_ > now)
            break;
        // Retirement blocks only on a *full* store buffer, so only
        // the pop that frees the first slot needs to wake the front
        // end — the port handles that transition.
        Addr addr = w.line_addr << l1d_->lineShift();
        dataHierarchyTime(addr, now);
        // A drained store to the coherent shared region publishes
        // invalidations to remote sharers through the interconnect
        // (no-op for private addresses and single-core chips).
        if (icp_ != nullptr)
            icp_->publishStore(core_index_, addr, now);
        sb_->pop(now);
        ++ports_used;
    }
}

Tick
LoadStoreUnit::step(Tick now)
{
    if (pending_->active)
        reconfig_->applyPending(id_, now);

    // Cross-core coherence delivery: invalidations whose transfer
    // latency has elapsed drop their lines from the L1D and charge
    // one mem port each — the timing visibility that makes the
    // publisher's remote wake load-bearing. Processing enables no
    // LSQ entry earlier (it only slows future accesses), so the walk
    // summary below stays valid.
    int coh_ports = 0;
    if (icp_ != nullptr) {
        coh_ports =
            icp_->consumeInvalidations(core_index_, now, *l1d_);
    }

    bool arrived_any = false;
    disp_->consume(now, [&](size_t) {
        lsq_.markArrived(now);
        arrived_any = true;
        return true;
    });

    // Walk-summary skip: every LSQ entry's blocking condition was
    // recorded by the last full walk. If none can have moved, only
    // the post-commit store buffer may still drain.
    if (!arrived_any && !ls_sum_.must_walk && now < ls_sum_.min_time &&
        ls_sum_.agen_snap == agen_->issues() &&
        ls_sum_.wake_snap == lsq_.wakeEvents() &&
        ls_sum_.epoch_snap == timing_.epoch()) {
        if (!sb_->empty() && sb_->frontReadyAt() <= now &&
            mshr_min_free_ <= now) {
            int ports = coh_ports;
            drainStoreBuffer(now, ports, cfg_.mem_ports);
        }
        return wakeBound();
    }
    bool need_every_edge = false;
    Tick min_time = kTickMax;

    // Stores become ready once their address-generation uop (which
    // also captures the data register) completes and its result
    // crosses into this domain; the ROB then retires them into the
    // store buffer. Only stores still waiting for data are walked
    // (their ids compacted in place, like the waiting loads).
    {
        auto &pending = lsq_.pendingStores();
        size_t keep = 0;
        const size_t n = pending.size();
        for (size_t i = 0; i < n; ++i) {
            std::uint64_t id = pending[i];
            LsqEntry &e = lsq_.byId(id);
            if (e.wait_kind == 1) {
                pending[keep++] = id; // agen still not issued.
                continue;
            }
            e.wait_kind = 0;
            InFlightOp &op = rob_[e.rob_idx];
            if (op.agen_done == kTickMax) {
                e.wait_kind = 1; // cleared by the agen issue itself.
                pending[keep++] = id;
                continue;
            }
            if (e.arrived_at <= now && agenVisible(e, op, now)) {
                op.store_ready = true;
                op.complete_at = now;
                e.data_ready = true; // leaves the pending walk.
                // Wake exactly the loads blocked on this store; no
                // other entry's memo depends on this capture.
                lsq_.wakeBlockedOn(e);
                // Retire blocks only on the ROB head; a younger
                // store becoming ready cannot unblock the front end.
                // The head becomes retirable *at this very tick*,
                // which the front end may first consume per the
                // publication order rule (the port decides).
                if (e.rob_idx == rob_.headIndex())
                    store_ready_->publish(now);
                continue;
            }
            if (e.arrived_at <= now) {
                // Waiting on a known agen-visibility time (an
                // unarrived entry resets the walk via the arrival
                // flag instead).
                min_time = std::min(min_time, e.agen_vis);
            }
            pending[keep++] = id;
        }
        pending.resize(keep);
    }

    int ports_used = coh_ports;
    // When the store buffer is nearly full it blocks retirement; give
    // it one port first.
    bool sb_pressure = sb_->size() + 1 >= sb_->capacity();
    if (sb_pressure)
        drainStoreBuffer(now, ports_used, 1);

    // Load issue walks only the not-yet-issued loads, oldest first.
    // Each blocked load carries why it is blocked, so the walk skips
    // it with a compare until the blocking condition can have moved.
    {
        auto &loads = lsq_.waitingLoads();
        size_t keep = 0;
        const size_t n = loads.size();
        for (size_t i = 0; i < n; ++i) {
            std::uint64_t id = loads[i];
            if (ports_used >= cfg_.mem_ports) {
                need_every_edge = true; // unevaluated loads remain.
                loads[keep++] = id;
                continue;
            }
            LsqEntry &e = lsq_.byId(id);
            if (e.wait_kind == 1) {
                loads[keep++] = id; // agen still not issued.
                continue;
            }
            if (e.wait_kind == 3) {
                // Chained on its blocking store: the store's data
                // capture or retirement clears this memo directly.
                loads[keep++] = id;
                continue;
            }
            if (e.wait_kind == 2) {
                if (now < e.wait_until) {
                    min_time = std::min(min_time, e.wait_until);
                    loads[keep++] = id; // MSHRs still busy, no new
                    continue;           // forwardable line pushed.
                }
                // The recorded MSHR free time passed: retire the
                // waiter record along with the memo.
                lsq_.removeMshrWaiter(e);
            }
            e.wait_kind = 0;
            if (e.arrived_at > now) {
                loads[keep++] = id; // arrival resets the walk.
                continue;
            }
            InFlightOp &op = rob_[e.rob_idx];
            if (op.agen_done == kTickMax) {
                e.wait_kind = 1; // cleared by the agen issue itself.
                loads[keep++] = id;
                continue;
            }
            if (!agenVisible(e, op, now)) {
                min_time = std::min(min_time, e.agen_vis);
                loads[keep++] = id; // pure time wait: one compare.
                continue;
            }
            std::uint64_t blocker = kLsqNoId;
            LoadStart r = tryStartLoad(e, now, ports_used, blocker);
            if (r == LoadStart::Issued)
                continue;
            if (r == LoadStart::Blocked) {
                // Event-waited on exactly one store: chain there.
                e.wait_kind = 3;
                lsq_.addBlockedWaiter(blocker, id);
            } else {
                // Time-waited on the exact MSHR free time (which
                // never moves earlier); a same-line store-buffer
                // push is the only event that can issue this load
                // sooner, and it finds the load via the waiter index.
                e.wait_kind = 2;
                e.wait_until = mshr_min_free_;
                lsq_.addMshrWaiter(id);
                min_time = std::min(min_time, e.wait_until);
            }
            loads[keep++] = id;
        }
        loads.resize(keep);
    }

    drainStoreBuffer(now, ports_used, cfg_.mem_ports);

    ls_sum_.must_walk = need_every_edge;
    ls_sum_.min_time = min_time;
    ls_sum_.agen_snap = agen_->issues();
    ls_sum_.wake_snap = lsq_.wakeEvents();
    ls_sum_.epoch_snap = timing_.epoch();
    return wakeBound();
}

Tick
LoadStoreUnit::wakeBound() const
{
    Tick w = kTickMax;
    if (!lsq_.empty()) {
        // Sleep on the walk summary. Wake sources are the agen port,
        // the indexed LSQ wakes (store data capture/retirement and
        // matching-line store-buffer pushes), recorded future times,
        // and the epoch-bump port.
        if (ls_sum_.must_walk ||
            ls_sum_.epoch_snap != timing_.epoch() ||
            ls_sum_.agen_snap != agen_->issues() ||
            ls_sum_.wake_snap != lsq_.wakeEvents()) {
            return 0;
        }
        w = std::min(w, ls_sum_.min_time);
    }
    if (!disp_->empty())
        w = std::min(w, disp_->frontVisibleAt());
    if (!sb_->empty()) {
        w = std::min(w,
                     std::max(sb_->frontReadyAt(), mshr_min_free_));
    }
    // An undelivered coherence invalidation bounds the sleep: without
    // this term a step between the publication and its delivery would
    // clobber the fabric wake when the scheduler refolds the bound.
    if (icp_ != nullptr)
        w = std::min(w, icp_->nextCoherenceAt(core_index_));
    return w;
}

} // namespace gals
