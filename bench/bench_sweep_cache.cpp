/**
 * @file
 * Cold-versus-warm wall clock for the 256-point exhaustive
 * Program-Adaptive sweep through the content-addressed result store
 * (sim/result_store.hh). The cold pass simulates every point and
 * checkpoints it; the warm pass replays the identical sweep from the
 * store. Both produce byte-identical shard JSON (asserted here), and
 * the cold/warm ratio is the speedup a resumed or repeated sweep
 * actually sees — the store's reason to exist. Infrastructure
 * measurement, not a paper experiment.
 *
 * The warm pass takes milliseconds, so it is repeated (at least 50
 * passes and 0.5 s) and the median pass is reported. main() writes
 * BENCH_sweep_cache.json with the cold time, the median warm pass,
 * the ratio, and the store's hit/miss counters over all warm passes,
 * so the trajectory file pins that every warm pass was 100% hits.
 */

#include "bench_util.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/report.hh"
#include "sim/result_store.hh"
#include "sim/shard.hh"
#include "sim/sweep.hh"
#include "workload/suite.hh"

using namespace gals;

namespace
{

namespace fs = std::filesystem;
using clk = std::chrono::steady_clock;

WorkloadParams
sweepWorkload()
{
    // Full 256-point sweep at a reduced (but still phase-exercising)
    // window: cold takes O(10s) on the reference container, which is
    // enough signal for a wall-clock ratio without bloating CI.
    WorkloadParams wl = findBenchmark("gzip");
    wl.sim_instrs = 20'000;
    wl.warmup_instrs = 2'000;
    return wl;
}

double
seconds(clk::time_point a, clk::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

void
BM_WarmSweepPoint(benchmark::State &state)
{
    // Steady-state warm lookups (store prefilled by main() below or
    // by the first iteration here): one 256-point sweep per
    // iteration, items = points served from the store.
    WorkloadParams wl = sweepWorkload();
    std::uint64_t points = 0;
    for (auto _ : state) {
        auto rows = sweepAdaptiveRaw(wl, ShardSpec{});
        benchmark::DoNotOptimize(rows.data());
        points += rows.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(points));
}
BENCHMARK(BM_WarmSweepPoint);

int
report(const fs::path &dir)
{
    configureResultStore(dir.string());
    if (!resultStore().enabled()) {
        std::fprintf(stderr, "cannot open result store under %s\n",
                     dir.string().c_str());
        return 1;
    }

    WorkloadParams wl = sweepWorkload();

    clk::time_point t0 = clk::now();
    std::string cold_json = adaptiveSweepShardJson(
        sweepAdaptiveRaw(wl, ShardSpec{}), wl.name, ShardSpec{});
    const double cold_s = seconds(t0, clk::now());

    // One warm pass takes a few milliseconds, so a single timing is
    // noise: repeat until both kWarmPasses passes and kWarmWindow have
    // gone by, and report the median pass.
    constexpr size_t kWarmPasses = 50;
    constexpr std::chrono::milliseconds kWarmWindow(500);
    std::vector<std::int64_t> warm_ns;
    bool identical = true;
    clk::time_point warm_start = clk::now();
    while (warm_ns.size() < kWarmPasses ||
           clk::now() - warm_start < kWarmWindow) {
        clk::time_point a = clk::now();
        std::string warm_json = adaptiveSweepShardJson(
            sweepAdaptiveRaw(wl, ShardSpec{}), wl.name, ShardSpec{});
        clk::time_point b = clk::now();
        warm_ns.push_back(
            std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                .count());
        identical = identical && warm_json == cold_json;
    }
    std::sort(warm_ns.begin(), warm_ns.end());
    const double warm_s =
        static_cast<double>(warm_ns[warm_ns.size() / 2]) * 1e-9;
    const double ratio = warm_s > 0.0 ? cold_s / warm_s : 0.0;
    const ResultStore::Counters c = resultStore().counters();
    const unsigned long long passes = warm_ns.size();
    const unsigned long long warm_misses = c.misses - 256; // cold's.

    std::printf("cold sweep: %10.6f s (256 points simulated)\n", cold_s);
    std::printf("warm sweep: %10.6f s, median of %llu passes (%llu "
                "hits, %llu misses)\n",
                warm_s, passes, static_cast<unsigned long long>(c.hits),
                warm_misses);
    std::printf("speedup:    %10.1fx, JSON byte-identical: %s\n", ratio,
                identical ? "yes" : "NO");

    std::FILE *f = std::fopen("BENCH_sweep_cache.json", "w");
    if (f == nullptr) {
        std::fprintf(stderr,
                     "warning: cannot write BENCH_sweep_cache.json\n");
    } else {
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"bench\": \"sweep_cache\",\n");
        std::fprintf(f,
                     "  \"workload\": \"gzip 20k+2k instructions, "
                     "256-point adaptive sweep\",\n");
        std::fprintf(f, "  \"cold_seconds\": %.3f,\n", cold_s);
        std::fprintf(f, "  \"warm_seconds\": %.6f,\n", warm_s);
        std::fprintf(f, "  \"warm_passes\": %llu,\n", passes);
        std::fprintf(f, "  \"speedup\": %.1f,\n", ratio);
        std::fprintf(f, "  \"warm_hits\": %llu,\n",
                     static_cast<unsigned long long>(c.hits));
        std::fprintf(f, "  \"warm_misses\": %llu,\n", warm_misses);
        std::fprintf(f, "  \"json_byte_identical\": %s\n",
                     identical ? "true" : "false");
        std::fprintf(f, "}\n");
        std::fclose(f);
    }

    // The store stays warm for BM_WarmSweepPoint; main() removes it
    // after the benchmarks.
    return identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    gals::benchBanner("Sweep result-store cold vs warm",
                      "infrastructure measurement (content-addressed "
                      "result store, sim/result_store.hh)");
    const fs::path dir =
        fs::temp_directory_path() /
        ("gals_bench_sweep_cache_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    int rc = report(dir);
    if (rc == 0)
        rc = runRegisteredBenchmarks(argc, argv);
    configureResultStore("");
    fs::remove_all(dir);
    return rc;
}
