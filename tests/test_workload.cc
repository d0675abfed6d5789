/** @file Tests for the synthetic workload generator and the suite. */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>

#include "workload/generator.hh"
#include "workload/suite.hh"

using namespace gals;

namespace
{
WorkloadParams
tiny()
{
    WorkloadParams w;
    w.name = "tiny";
    w.suite = "test";
    w.seed = 77;
    w.phases = {PhaseParams{}};
    return w;
}
} // namespace

TEST(Workload, DeterministicForSameSeed)
{
    SyntheticWorkload a(tiny()), b(tiny());
    for (int i = 0; i < 20'000; ++i) {
        MicroOp x = a.next();
        MicroOp y = b.next();
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(static_cast<int>(x.cls), static_cast<int>(y.cls));
        ASSERT_EQ(x.mem_addr, y.mem_addr);
        ASSERT_EQ(x.taken, y.taken);
        ASSERT_EQ(x.src1, y.src1);
        ASSERT_EQ(x.dst, y.dst);
    }
}

TEST(Workload, DifferentSeedsDiffer)
{
    WorkloadParams w2 = tiny();
    w2.seed = 78;
    SyntheticWorkload a(tiny()), b(w2);
    int diff = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next().mem_addr != b.next().mem_addr)
            ++diff;
    }
    EXPECT_GT(diff, 0);
}

TEST(Workload, BranchEveryBlock)
{
    WorkloadParams w = tiny();
    w.phases[0].block_len = 8;
    SyntheticWorkload g(w);
    int branches = 0;
    const int n = 8000;
    for (int i = 0; i < n; ++i) {
        MicroOp op = g.next();
        if (op.cls == OpClass::Branch) {
            ++branches;
            // The branch is the last instruction of its block.
            EXPECT_EQ((op.pc / 4) % 16 % 8, 7u);
        }
    }
    EXPECT_EQ(branches, n / 8);
}

TEST(Workload, InstructionMixMatchesFractions)
{
    WorkloadParams w = tiny();
    w.phases[0].load_frac = 0.3;
    w.phases[0].store_frac = 0.15;
    SyntheticWorkload g(w);
    std::map<OpClass, int> mix;
    const int n = 60'000;
    int work_ops = 0;
    for (int i = 0; i < n; ++i) {
        MicroOp op = g.next();
        ++mix[op.cls];
        if (op.cls != OpClass::Branch)
            ++work_ops;
    }
    double loads = (mix[OpClass::Load] + mix[OpClass::FpLoad]) /
                   static_cast<double>(work_ops);
    double stores = mix[OpClass::Store] /
                    static_cast<double>(work_ops);
    EXPECT_NEAR(loads, 0.3, 0.02);
    EXPECT_NEAR(stores, 0.15, 0.02);
}

TEST(Workload, CodeStaysInFootprint)
{
    WorkloadParams w = tiny();
    w.phases[0].code_hot_bytes = 4096;
    w.phases[0].code_total_bytes = 8192;
    SyntheticWorkload g(w);
    for (int i = 0; i < 50'000; ++i) {
        MicroOp op = g.next();
        EXPECT_GE(op.pc, kCodeBase);
        EXPECT_LT(op.pc, kCodeBase + 8192);
    }
}

TEST(Workload, HotCodeDominates)
{
    WorkloadParams w = tiny();
    w.phases[0].code_hot_bytes = 4096;
    w.phases[0].code_total_bytes = 64 * 1024;
    w.phases[0].excursion_frac = 0.01;
    SyntheticWorkload g(w);
    int hot = 0, total = 0;
    for (int i = 0; i < 50'000; ++i) {
        MicroOp op = g.next();
        ++total;
        if (op.pc < kCodeBase + 4096)
            ++hot;
    }
    EXPECT_GT(hot / static_cast<double>(total), 0.85);
}

TEST(Workload, DataAddressesInRegions)
{
    WorkloadParams w = tiny();
    w.phases[0].stream_bytes = 32 * 1024;
    w.phases[0].rand_bytes = 64 * 1024;
    w.phases[0].rand_frac = 0.5;
    SyntheticWorkload g(w);
    // The pool follows the stream region with a 3-line pad.
    Addr rand_base = kStreamBase + 32 * 1024 + 3 * 64;
    bool saw_stream = false, saw_rand = false;
    for (int i = 0; i < 50'000; ++i) {
        MicroOp op = g.next();
        if (!isMemOp(op.cls))
            continue;
        EXPECT_GE(op.mem_addr, kStreamBase);
        EXPECT_LT(op.mem_addr, rand_base + 64 * 1024);
        if (op.mem_addr >= rand_base)
            saw_rand = true;
        else if (op.mem_addr < kStreamBase + 32 * 1024)
            saw_stream = true;
    }
    EXPECT_TRUE(saw_stream);
    EXPECT_TRUE(saw_rand);
}

TEST(Workload, PhasesCycleOnSchedule)
{
    WorkloadParams w = tiny();
    PhaseParams p1;
    p1.length_instrs = 1000;
    p1.fp_frac = 0.0;
    PhaseParams p2 = p1;
    p2.fp_frac = 1.0;
    w.phases = {p1, p2};
    SyntheticWorkload g(w);
    EXPECT_EQ(g.currentPhase(), 0);
    for (int i = 0; i < 1000; ++i)
        g.next();
    EXPECT_EQ(g.currentPhase(), 1);
    for (int i = 0; i < 1000; ++i)
        g.next();
    EXPECT_EQ(g.currentPhase(), 0);
}

TEST(Workload, FpFractionControlsFpOps)
{
    WorkloadParams w = tiny();
    w.phases[0].fp_frac = 1.0;
    w.phases[0].load_frac = 0.0;
    w.phases[0].store_frac = 0.0;
    SyntheticWorkload g(w);
    for (int i = 0; i < 2000; ++i) {
        MicroOp op = g.next();
        if (op.cls == OpClass::Branch)
            continue;
        EXPECT_TRUE(isFpOp(op.cls));
    }
}

TEST(Workload, DependenciesReferenceRecentDests)
{
    SyntheticWorkload g(tiny());
    std::set<int> live{kZeroReg, kFirstFpReg};
    for (int i = 0; i < 10'000; ++i) {
        MicroOp op = g.next();
        if (op.src1 >= 0 && op.src1 != kZeroReg &&
            op.src1 != kFirstFpReg) {
            EXPECT_TRUE(live.count(op.src1))
                << "src1 " << int(op.src1) << " never written";
        }
        if (op.dst >= 0)
            live.insert(op.dst);
    }
}

TEST(Suite, FortyRunsInPaperOrder)
{
    const auto &suite = benchmarkSuite();
    EXPECT_EQ(suite.size(), 40u);
    int media = 0, olden = 0, spec = 0;
    for (const WorkloadParams &w : suite) {
        EXPECT_FALSE(w.phases.empty()) << w.name;
        EXPECT_GT(w.sim_instrs, 0u) << w.name;
        if (w.suite == "MediaBench")
            ++media;
        else if (w.suite == "Olden")
            ++olden;
        else
            ++spec;
    }
    EXPECT_EQ(media, 16);
    EXPECT_EQ(olden, 9);
    EXPECT_EQ(spec, 15);
}

TEST(Suite, LookupByName)
{
    EXPECT_EQ(findBenchmark("em3d").suite, "Olden");
    EXPECT_EQ(findBenchmark("gcc").suite, "SPEC2000-Int");
    EXPECT_GE(findBenchmark("apsi").phases.size(), 2u);
    EXPECT_GE(findBenchmark("art").phases.size(), 4u);
    EXPECT_GE(findBenchmark("mst").phases.size(), 2u);
}

TEST(Suite, SeedsAreUnique)
{
    std::set<std::uint64_t> seeds;
    for (const WorkloadParams &w : benchmarkSuite())
        EXPECT_TRUE(seeds.insert(w.seed).second) << w.name;
}

namespace
{

/** FNV-1a over every field of the first `n` ops of `wl`'s stream. */
std::uint64_t
streamHash(const WorkloadParams &wl, std::uint64_t n)
{
    SyntheticWorkload w(wl);
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    for (std::uint64_t i = 0; i < n; ++i) {
        MicroOp op = w.next();
        mix(static_cast<std::uint64_t>(op.cls));
        mix(op.pc);
        mix(op.mem_addr);
        mix(static_cast<std::uint64_t>(
            static_cast<std::uint8_t>(op.src1)));
        mix(static_cast<std::uint64_t>(
            static_cast<std::uint8_t>(op.src2)));
        mix(static_cast<std::uint64_t>(
            static_cast<std::uint8_t>(op.dst)));
        mix(op.taken ? 1 : 0);
    }
    return h;
}

} // namespace

/**
 * The generator's RNG stream is load-bearing: the determinism goldens
 * and every paper table depend on the exact op sequence, so any
 * generator fast-path change must preserve it bit-exactly. These
 * hashes were captured before the phase-cache optimization and pin
 * 50k ops of five representative benchmarks (multi-phase, fp,
 * pointer-chasing, streaming).
 */
TEST(Generator, StreamHashesArePinned)
{
    const struct
    {
        const char *name;
        std::uint64_t hash;
    } kGolden[] = {
        {"gzip", 0x90c9a47ecdb4ad00ULL},
        {"mst", 0x84add5227e072731ULL},
        {"art", 0x2b1dcad5a49cb967ULL},
        {"apsi", 0x528d9cc013030823ULL},
        {"em3d", 0x2dc54ea0721b977fULL},
    };
    for (const auto &g : kGolden)
        EXPECT_EQ(streamHash(findBenchmark(g.name), 50'000), g.hash)
            << g.name;
}

TEST(Generator, NextBatchMatchesPerOpGeneration)
{
    // nextBatch is the fetch refill path of every front end; it
    // must be bit-exact with n successive next() calls for
    // any batch-boundary placement, including batches spanning a
    // phase switch.
    WorkloadParams wl = findBenchmark("gzip");
    SyntheticWorkload per_op(wl);
    SyntheticWorkload batched(wl);
    std::array<MicroOp, 37> buf{};
    std::uint64_t checked = 0;
    while (checked < 60'000) {
        int n = static_cast<int>(buf.size());
        batched.nextBatch(buf.data(), n);
        for (int i = 0; i < n; ++i) {
            MicroOp a = per_op.next();
            const MicroOp &b = buf[static_cast<size_t>(i)];
            ASSERT_EQ(static_cast<int>(a.cls),
                      static_cast<int>(b.cls));
            ASSERT_EQ(a.pc, b.pc);
            ASSERT_EQ(a.mem_addr, b.mem_addr);
            ASSERT_EQ(a.src1, b.src1);
            ASSERT_EQ(a.src2, b.src2);
            ASSERT_EQ(a.dst, b.dst);
            ASSERT_EQ(a.taken, b.taken);
        }
        checked += static_cast<std::uint64_t>(n);
    }
}

/**
 * Per-core streams on the scaled-up chip: a 16-core sharing mix puts
 * cores >= 4 in the tightened 32MB-spaced private regions (chips of
 * <= 4 cores keep the legacy 64MB spacing, whose streams the
 * single-core goldens above pin via core 0), and the golden-ratio
 * reseed must keep every core's stream stable. Captured when
 * kMaxCores grew to 16.
 */
TEST(Generator, PerCoreStreamHashesArePinnedOnWideChips)
{
    std::vector<WorkloadParams> mix =
        sharingMix(findBenchmark("gzip"), 16, "migratory");
    const struct
    {
        int core;
        std::uint64_t hash;
    } kGolden[] = {
        {4, 0x8c2fd26aa82768c5ULL},
        {9, 0x97524ea04f52e09dULL},
        {15, 0x406a49e7f5905771ULL},
    };
    for (const auto &g : kGolden) {
        EXPECT_EQ(streamHash(mix[static_cast<size_t>(g.core)],
                             50'000),
                  g.hash)
            << "core " << g.core;
    }
}
