#include "timing/frequency_model.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.hh"
#include "common/types.hh"
#include "timing/palacharla_model.hh"

namespace gals
{

namespace
{

constexpr std::uint64_t KB = 1024;

/** Pipeline depth of a cache access: f = stages / t_access. */
constexpr double kCachePipelineStages = 2.0;

double
cacheFreqGHz(const CactiModel &model, const SramOrg &org, bool adaptive,
             bool is_minimal)
{
    double t = adaptive ? model.adaptiveAccessNs(org, is_minimal)
                        : model.accessNs(org);
    return std::min(kCachePipelineStages / t, kCoreLogicCapGHz);
}

/** Predictor organizations shared by Tables 2 and 3, keyed by hg. */
PredictorOrg
predictorForHistory(int hg, int hl)
{
    PredictorOrg p;
    p.gshare_hist_bits = hg;
    p.gshare_entries = 1 << hg;
    p.meta_entries = 1 << hg;
    p.local_hist_bits = hl;
    p.local_bht_entries = 1 << hl;
    // Table 2/3: the local PHT holds 1024 branch histories for all but
    // the very smallest predictors (512 at hg=12).
    p.local_pht_entries = hg <= 12 ? 512 : 1024;
    return p;
}

std::array<DCachePairConfig, kNumAdaptiveConfigs>
buildDCacheTable()
{
    // Table 1. Adaptive: every additional L1 way is a replica of the
    // 32KB/32-sub-bank minimal way; every L2 way replicates the 8-bank
    // 256KB way. Optimal: CACTI's best org at each capacity.
    struct Row
    {
        std::uint64_t l1_kb;
        int assoc;
        int l1_sb_adapt, l1_sb_opt;
        std::uint64_t l2_kb;
        int l2_sb_adapt, l2_sb_opt;
        int l1_b_lat, l2_b_lat;
        const char *name;
    };
    const Row rows[kNumAdaptiveConfigs] = {
        {32, 1, 32, 32, 256, 8, 8, -1, -1, "32k1W/256k1W"},
        {64, 2, 32, 8, 512, 8, 4, 5, 27, "64k2W/512k2W"},
        {128, 4, 32, 16, 1024, 8, 4, 2, 12, "128k4W/1024k4W"},
        {256, 8, 32, 4, 2048, 8, 4, -1, -1, "256k8W/2048k8W"},
    };
    // B-partition latencies (Table 5): L1 2/8, 2/5, 2/2, 2/-;
    // L2 12/43, 12/27, 12/12, 12/-.  Config 0 has A == 1 way out of 8
    // physical ways; its B partition is the remaining 7 ways.
    const int l1_b[kNumAdaptiveConfigs] = {8, 5, 2, -1};
    const int l2_b[kNumAdaptiveConfigs] = {43, 27, 12, -1};

    std::array<DCachePairConfig, kNumAdaptiveConfigs> table{};
    for (int i = 0; i < kNumAdaptiveConfigs; ++i) {
        const Row &r = rows[i];
        DCachePairConfig &c = table[static_cast<size_t>(i)];
        c.index = i;
        c.l1_adapt = {r.l1_kb * KB, r.assoc, r.l1_sb_adapt, 64};
        c.l1_opt = {r.l1_kb * KB, r.assoc, r.l1_sb_opt, 64};
        c.l2_adapt = {r.l2_kb * KB, r.assoc, r.l2_sb_adapt, 64};
        c.l2_opt = {r.l2_kb * KB, r.assoc, r.l2_sb_opt, 64};
        c.l1_a_lat = 2;
        c.l1_b_lat = l1_b[i];
        c.l2_a_lat = 12;
        c.l2_b_lat = l2_b[i];
        c.freq_adaptive_ghz = cacheFreqGHz(CactiModel::dataCache(),
                                           c.l1_adapt, true, i == 0);
        c.freq_optimal_ghz = cacheFreqGHz(CactiModel::dataCache(),
                                          c.l1_opt, false, false);
        c.name = r.name;
    }
    return table;
}

std::array<ICacheConfig, kNumAdaptiveConfigs>
buildICacheTable()
{
    // Table 2: adaptive I-cache resizes by ways 1..4, 16KB per way,
    // 32 sub-banks, with the matched predictor organizations.
    const int hg[kNumAdaptiveConfigs] = {14, 15, 15, 16};
    const int hl[kNumAdaptiveConfigs] = {11, 12, 12, 13};
    // A/B partition latencies for the I-cache. The paper gives them
    // for the D-cache pairs only; this is our assumption of the
    // analogous schedule (B latency shrinking as A grows).
    const int b_lat[kNumAdaptiveConfigs] = {6, 4, 2, -1};
    const char *names[kNumAdaptiveConfigs] = {"16k1W", "32k2W", "48k3W",
                                              "64k4W"};

    std::array<ICacheConfig, kNumAdaptiveConfigs> table{};
    for (int i = 0; i < kNumAdaptiveConfigs; ++i) {
        ICacheConfig &c = table[static_cast<size_t>(i)];
        c.index = i;
        c.org = {16 * KB * static_cast<std::uint64_t>(i + 1), i + 1, 32,
                 64};
        c.predictor = predictorForHistory(hg[i], hl[i]);
        c.a_lat = 2;
        c.b_lat = b_lat[i];
        c.freq_ghz = cacheFreqGHz(CactiModel::instCache(), c.org, true,
                                  i == 0);
        c.name = names[i];
    }
    return table;
}

std::array<OptICacheConfig, kNumOptICacheConfigs>
buildOptICacheTable()
{
    // Table 3: the sixteen optimized synchronous options.
    struct Row
    {
        std::uint64_t kb;
        int assoc;
        int subbanks;
        int hg, hl;
    };
    const Row rows[kNumOptICacheConfigs] = {
        {4, 1, 2, 12, 10},   {8, 1, 4, 13, 10},   {16, 1, 16, 14, 11},
        {32, 1, 32, 15, 12}, {64, 1, 32, 16, 13}, {4, 2, 8, 12, 10},
        {8, 2, 16, 13, 10},  {16, 2, 32, 14, 11}, {32, 2, 32, 15, 12},
        {64, 2, 32, 16, 13}, {12, 3, 16, 13, 10}, {16, 4, 16, 14, 11},
        {24, 3, 32, 14, 11}, {32, 4, 2, 15, 12},  {48, 3, 32, 15, 12},
        {64, 4, 16, 16, 13},
    };
    std::array<OptICacheConfig, kNumOptICacheConfigs> table{};
    for (int i = 0; i < kNumOptICacheConfigs; ++i) {
        const Row &r = rows[i];
        OptICacheConfig &c = table[static_cast<size_t>(i)];
        c.index = i;
        c.org = {r.kb * KB, r.assoc, r.subbanks, 64};
        c.predictor = predictorForHistory(r.hg, r.hl);
        c.freq_ghz = cacheFreqGHz(CactiModel::instCache(), c.org, false,
                                  false);
        c.name = csprintf("%lluk%dW",
                          static_cast<unsigned long long>(r.kb), r.assoc);
    }
    return table;
}

const std::array<DCachePairConfig, kNumAdaptiveConfigs> &
dcacheTable()
{
    static const auto table = buildDCacheTable();
    return table;
}

const std::array<ICacheConfig, kNumAdaptiveConfigs> &
icacheTable()
{
    static const auto table = buildICacheTable();
    return table;
}

const std::array<OptICacheConfig, kNumOptICacheConfigs> &
optICacheTable()
{
    static const auto table = buildOptICacheTable();
    return table;
}

} // namespace

double
issueQueueFreqGHzForEntries(int entries)
{
    static const IssueQueueTiming timing;
    return std::min(timing.freqGHz(entries), kCoreLogicCapGHz);
}

double
issueQueueFreqGHz(int size_index)
{
    GALS_ASSERT(size_index >= 0 && size_index < kNumAdaptiveConfigs,
                "IQ size index %d out of range", size_index);
    return issueQueueFreqGHzForEntries(kIssueQueueSizes[size_index]);
}

const DCachePairConfig &
dcachePairConfig(int index)
{
    GALS_ASSERT(index >= 0 && index < kNumAdaptiveConfigs,
                "D-cache config index %d out of range", index);
    return dcacheTable()[static_cast<size_t>(index)];
}

const ICacheConfig &
icacheConfig(int index)
{
    GALS_ASSERT(index >= 0 && index < kNumAdaptiveConfigs,
                "I-cache config index %d out of range", index);
    return icacheTable()[static_cast<size_t>(index)];
}

const OptICacheConfig &
optICacheConfig(int index)
{
    GALS_ASSERT(index >= 0 && index < kNumOptICacheConfigs,
                "optimal I-cache index %d out of range", index);
    return optICacheTable()[static_cast<size_t>(index)];
}

double
frontEndFreqAdaptive(int icache_index)
{
    return std::min(icacheConfig(icache_index).freq_ghz,
                    kCoreLogicCapGHz);
}

double
loadStoreFreqAdaptive(int dcache_index)
{
    return std::min(dcachePairConfig(dcache_index).freq_adaptive_ghz,
                    kCoreLogicCapGHz);
}

double
issueDomainFreqAdaptive(int iq_size_index)
{
    return issueQueueFreqGHz(iq_size_index);
}

double
synchronousFreq(int opt_icache_index, int dcache_index, int iq_int_index,
                int iq_fp_index)
{
    double f = optICacheConfig(opt_icache_index).freq_ghz;
    f = std::min(f, dcachePairConfig(dcache_index).freq_optimal_ghz);
    f = std::min(f, issueQueueFreqGHz(iq_int_index));
    f = std::min(f, issueQueueFreqGHz(iq_fp_index));
    return std::min(f, kCoreLogicCapGHz);
}

std::uint64_t
memoryLineFillPs()
{
    double ns = kMemFirstChunkNs +
                kMemNextChunkNs * (kMemChunksPerLine - 1);
    return static_cast<std::uint64_t>(ns * kPsPerNs);
}

} // namespace gals
