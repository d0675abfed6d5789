#include "cache/shared_l2.hh"

#include <algorithm>

#include "common/logging.hh"
#include "timing/frequency_model.hh"

namespace gals
{

SharedL2::SharedL2(const Params &p)
    : p_(p), cache_("l2", p.size_bytes, p.ways),
      memory_(kMemFirstChunkNs, kMemNextChunkNs, 64, 8),
      banks_(static_cast<size_t>(p.banks)),
      per_core_(static_cast<size_t>(p.cores)), row_(p.row)
{
    GALS_ASSERT(p.cores >= 1, "SharedL2 needs at least one core");
    GALS_ASSERT(p.banks >= 1, "SharedL2 needs at least one bank");
    GALS_ASSERT(p.bank_mshrs >= 0, "negative bank MSHR count");
    if ((p.banks & (p.banks - 1)) == 0)
        bank_mask_ = static_cast<Addr>(p.banks - 1);
    cache_.setPartition(p.a_ways, p.phase_adaptive);
    for (PerCore &pc : per_core_) {
        pc.interval.mru_hits.assign(static_cast<size_t>(p.ways), 0);
    }
    if (coherent()) {
        GALS_ASSERT(p.cores <= 16,
                    "directory sharer bitmask holds at most 16 cores");
        GALS_ASSERT(p.coh_delay_ps > 0,
                    "coherence delay must be positive");
        size_t lines = static_cast<size_t>(
            (p.shared_bytes + static_cast<std::uint64_t>(
                                  cache_.lineBytes()) - 1) /
            static_cast<std::uint64_t>(cache_.lineBytes()));
        directory_.resize(lines);
        inboxes_.resize(static_cast<size_t>(p.cores));
    }
}

void
SharedL2::resetInterval(int core)
{
    IntervalCounts &iv = per_core_[static_cast<size_t>(core)].interval;
    std::fill(iv.mru_hits.begin(), iv.mru_hits.end(), 0);
    iv.misses = 0;
    iv.accesses = 0;
}

AccessOutcome
SharedL2::access(int core, Addr addr)
{
    AccessOutcome out = cache_.access(addr);
    PerCore &pc = per_core_[static_cast<size_t>(core)];
    ++pc.accesses;
    ++pc.interval.accesses;
    if (out.where == HitWhere::Miss) {
        ++pc.misses;
        ++pc.interval.misses;
    } else {
        if (out.where == HitWhere::BPartition)
            ++pc.b_hits;
        ++pc.interval.mru_hits[static_cast<size_t>(out.mru_pos)];
    }
    return out;
}

} // namespace gals
