#include "predictor/hybrid_predictor.hh"

#include "common/logging.hh"

namespace gals
{

HybridPredictor::HybridPredictor(const PredictorOrg &org)
{
    reconfigure(org);
}

namespace
{
/**
 * Re-size a counter table preserving trained state: the adaptive
 * predictor's tables are substructures of one physical array (the
 * paper's Table 2 organizations share their low-order entries), so
 * resizing keeps — or replicates — the overlapping entries instead
 * of cold-starting every branch after a reconfiguration.
 */
template <typename T>
std::vector<T>
resizeTable(const std::vector<T> &old, size_t new_size, T fallback)
{
    std::vector<T> fresh(new_size, fallback);
    if (!old.empty()) {
        size_t j = 0;
        for (size_t i = 0; i < new_size; ++i) {
            fresh[i] = old[j];
            if (++j == old.size())
                j = 0;
        }
    }
    return fresh;
}
} // namespace

void
HybridPredictor::reconfigure(const PredictorOrg &org)
{
    GALS_ASSERT(org.gshare_entries == (1 << org.gshare_hist_bits),
                "gshare table must be 2^hg entries");
    GALS_ASSERT(org.local_bht_entries == (1 << org.local_hist_bits),
                "local BHT must be 2^hl entries");
    org_ = org;
    gshare_bht_ = resizeTable(
        gshare_bht_, static_cast<size_t>(org.gshare_entries),
        SaturatingCounter(1));
    meta_ = resizeTable(meta_, static_cast<size_t>(org.meta_entries),
                        SaturatingCounter(1));
    local_pht_ = resizeTable(
        local_pht_, static_cast<size_t>(org.local_pht_entries), 0u);
    local_bht_ = resizeTable(
        local_bht_, static_cast<size_t>(org.local_bht_entries),
        SaturatingCounter(1));
    // Histories must fit the (possibly narrower) new widths.
    global_history_ &=
        (1u << static_cast<unsigned>(org.gshare_hist_bits)) - 1u;
    std::uint32_t hist_mask =
        (1u << static_cast<unsigned>(org.local_hist_bits)) - 1u;
    for (std::uint32_t &h : local_pht_)
        h &= hist_mask;
}

namespace
{
/**
 * Spread branch addresses across table indices. Synthetic branch
 * sites sit one per 64-byte line, so plain low-order PC bits would
 * stride through the tables and waste most entries; a multiplicative
 * hash restores the dense-index behavior of real branch addresses.
 */
std::uint32_t
pcHash(Addr pc)
{
    return static_cast<std::uint32_t>(pc >> 2) * 2654435761u;
}
} // namespace

std::uint32_t
HybridPredictor::gshareIndex(Addr pc) const
{
    std::uint32_t mask =
        static_cast<std::uint32_t>(org_.gshare_entries - 1);
    return (pcHash(pc) ^ global_history_) & mask;
}

std::uint32_t
HybridPredictor::metaIndex(Addr pc) const
{
    // The chooser is PC-indexed (McFarling TN-36): its decision is a
    // stable property of the branch, not of the path leading to it.
    std::uint32_t mask =
        static_cast<std::uint32_t>(org_.meta_entries - 1);
    return pcHash(pc) & mask;
}

std::uint32_t
HybridPredictor::localPhtIndex(Addr pc) const
{
    return pcHash(pc) %
           static_cast<std::uint32_t>(org_.local_pht_entries);
}

BranchPrediction
HybridPredictor::predict(Addr pc) const
{
    ++lookups_;
    BranchPrediction p{};
    p.gshare_taken = gshare_bht_[gshareIndex(pc)].taken();

    std::uint32_t hist = local_pht_[localPhtIndex(pc)];
    p.local_taken = local_bht_[hist].taken();

    p.used_local = meta_[metaIndex(pc)].taken();
    p.taken = p.used_local ? p.local_taken : p.gshare_taken;
    return p;
}

bool
HybridPredictor::update(Addr pc, const BranchPrediction &pred,
                        bool outcome)
{
    // Train the meta chooser only on disagreement: toward local when
    // local was right, toward gshare when gshare was right.
    if (pred.local_taken != pred.gshare_taken)
        meta_[metaIndex(pc)].update(pred.local_taken == outcome);

    gshare_bht_[gshareIndex(pc)].update(outcome);

    std::uint32_t pht_idx = localPhtIndex(pc);
    std::uint32_t hist = local_pht_[pht_idx];
    local_bht_[hist].update(outcome);

    std::uint32_t hist_mask =
        (1u << static_cast<unsigned>(org_.local_hist_bits)) - 1u;
    local_pht_[pht_idx] =
        ((hist << 1) | (outcome ? 1u : 0u)) & hist_mask;

    std::uint32_t ghist_mask =
        (1u << static_cast<unsigned>(org_.gshare_hist_bits)) - 1u;
    global_history_ =
        ((global_history_ << 1) | (outcome ? 1u : 0u)) & ghist_mask;

    bool correct = pred.taken == outcome;
    if (!correct)
        ++mispredicts_;
    return correct;
}

void
HybridPredictor::resetStats()
{
    lookups_ = 0;
    mispredicts_ = 0;
}

} // namespace gals
