/**
 * @file
 * Content-addressed result store tests (sim/result_store.hh). The
 * contract under test is "recompute, never trust": truncated,
 * bit-flipped, stale-version and hash-colliding records, and
 * non-regular or oversized files at a record path, all degrade to
 * misses with correct recomputed results; keys, record names and
 * record bytes are pinned, so stores already on disk stay warm;
 * writes are atomic under concurrent writers (threads and separate
 * processes); and a warm-cache sweep rerun is byte-identical to the
 * cache-off run while being several times faster — the property the
 * whole store exists for.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cfloat>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <thread>

#include "harness.hh"
#include "sim/report.hh"
#include "sim/result_store.hh"
#include "sim/simulation.hh"
#include "sim/sweep.hh"
#include "workload/suite.hh"

using namespace gals;
using harness::expectSameStats;
namespace fs = std::filesystem;

namespace
{

/** Fresh temp cache dir per test; global store disabled on exit so
 * later tests (and the rest of the suite) stay cache-off. */
class ResultStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("gals_rs_test_" + std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name()))
                   .string();
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        configureResultStore("");
        fs::remove_all(dir_);
    }

    std::string dir_;
};

/** A cheap single-core point for store round trips. */
WorkloadParams
tinyWorkload()
{
    WorkloadParams wl = findBenchmark("gzip");
    wl.sim_instrs = 1'200;
    wl.warmup_instrs = 200;
    return wl;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** FNV-1a over `s` from basis `h` (the store's record-name and
 * checksum hash, docs/kernel.md "Result store"), restated here so the
 * pins below do not trust the code under test. */
std::uint64_t
fnv1a(const std::string &s, std::uint64_t h)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** The standard FNV-1a basis: the checksum and the name's first half. */
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
/** The salted basis of the name's second half. */
constexpr std::uint64_t kFnvSecondBasis = 0x9ae16a3b2f90404fULL;

/** The 32-hex-digit record name of `key`: both FNV-1a halves. */
std::string
nameHash(const std::string &key)
{
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(key, kFnvBasis)),
                  static_cast<unsigned long long>(
                      fnv1a(key, kFnvSecondBasis)));
    return buf;
}

/** `v` as `bytes` little-endian bytes. */
std::string
le(std::uint64_t v, int bytes)
{
    std::string out;
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    return out;
}

} // namespace

TEST_F(ResultStoreTest, KeyIsStableAndFieldSensitive)
{
    MachineConfig m = MachineConfig::mcdProgram({1, 2, 3, 0});
    WorkloadParams wl = tinyWorkload();

    const std::string base = resultKey(m, wl);
    EXPECT_EQ(base, resultKey(m, wl)); // deterministic.

    // Any semantic field change must move the key.
    {
        WorkloadParams t = wl;
        t.seed += 1;
        EXPECT_NE(base, resultKey(m, t));
    }
    {
        WorkloadParams t = wl;
        t.sim_instrs += 1;
        EXPECT_NE(base, resultKey(m, t));
    }
    {
        WorkloadParams t = wl;
        t.phases.front().load_frac += 1e-9;
        EXPECT_NE(base, resultKey(m, t));
    }
    {
        MachineConfig t = m;
        t.adaptive.dcache = 3;
        EXPECT_NE(base, resultKey(t, wl));
    }
    {
        MachineConfig t = m;
        t.jitter_sigma_ps = 1.0;
        EXPECT_NE(base, resultKey(t, wl));
    }

    // Chip keys: distinct from single-core keys and sensitive to the
    // chip-level knobs and every per-core workload.
    ChipConfig cc;
    cc.machine = m;
    cc.cores = 2;
    std::vector<WorkloadParams> mix{perCoreWorkload(wl, 0),
                                    perCoreWorkload(wl, 1)};
    const std::string chip = resultKey(cc, mix);
    EXPECT_NE(chip, base);
    {
        ChipConfig t = cc;
        t.coh_delay_ps += 1;
        EXPECT_NE(chip, resultKey(t, mix));
    }
    {
        auto t = mix;
        t[1].seed += 1;
        EXPECT_NE(chip, resultKey(cc, t));
    }
}

TEST_F(ResultStoreTest, KeyBytesArePinned)
{
    // The key text names every record on disk, so any change to its
    // bytes strands every existing store (all misses, no error).
    // Pinned: the length and record name of the key for the three
    // paper machines on a two-phase benchmark and for a 4-core chip.
    // These move only when a key field is added or a suite or preset
    // value changes; re-pin then.
    configureResultStore(dir_);
    const WorkloadParams wl = findBenchmark("apsi");
    ASSERT_EQ(wl.phases.size(), 2u);
    auto expectPinned = [](const std::string &key, size_t len,
                           const char *name) {
        EXPECT_EQ(key.size(), len);
        EXPECT_EQ(nameHash(key), name);
        EXPECT_EQ(fs::path(resultStore().recordPath(key)).filename(),
                  std::string(name) + ".grs");
    };
    expectPinned(resultKey(MachineConfig::bestSynchronous(), wl), 1212,
                 "97f50de7338227164e97bdd6fd99ed4c");
    expectPinned(resultKey(MachineConfig::mcdProgram({}), wl), 1212,
                 "3b9545348605e9d599d19059c08ad3cb");
    expectPinned(resultKey(MachineConfig::mcdPhaseAdaptive(), wl), 1212,
                 "3543ed8c21cabbca051adbfb3c516728");

    ChipConfig cc;
    cc.machine = MachineConfig::mcdProgram({1, 2, 3, 0});
    cc.cores = 4;
    std::vector<WorkloadParams> mix;
    for (int c = 0; c < cc.cores; ++c)
        mix.push_back(perCoreWorkload(wl, c));
    expectPinned(resultKey(cc, mix), 3831,
                 "70e94e07c715e6e04edcca912e0fa9de");
}

TEST_F(ResultStoreTest, KeyRendersDoublesAsPrintfHexfloat)
{
    // Doubles render in %a hexfloat: exact, and the format every
    // stored key was written in. Random bit patterns (normals,
    // subnormals, NaN payloads) plus the edge values must all render
    // byte-equal to snprintf("%a").
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> values = {0.0,     -0.0,          DBL_MIN,
                                  -DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN,
                                  DBL_MIN / 3, DBL_MAX,   -DBL_MAX,
                                  kInf,    -kInf,         kNan,
                                  -kNan,   1.0,           -1.5,
                                  0.1};
    std::mt19937_64 rng(2004);
    for (int i = 0; i < 20'000; ++i) {
        std::uint64_t bits = rng();
        if (i % 4 == 0)
            bits &= 0x800fffffffffffffULL; // zero exponent: subnormal.
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        values.push_back(v);
    }

    MachineConfig m = MachineConfig::bestSynchronous();
    const WorkloadParams wl = tinyWorkload();
    for (double v : values) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%a", v);
        m.jitter_sigma_ps = v;
        ASSERT_NE(resultKey(m, wl).find(std::string(";jit=") + buf + ";"),
                  std::string::npos)
            << buf;
    }
}

TEST_F(ResultStoreTest, HandBuiltRecordFromDocumentedLayoutHits)
{
    // A record assembled from the layout in docs/kernel.md stands for
    // every store written so far: lookup must serve it, and store()
    // must write exactly those bytes under the pinned name.
    configureResultStore(dir_);
    MachineConfig m = MachineConfig::bestSynchronous();
    WorkloadParams wl = tinyWorkload();
    const RunStats live = simulate(m, wl);
    const std::string key = resultKey(m, wl);
    const std::string payload = serializeRunStats(live);
    const std::string tag = kResultStoreVersion;

    std::string record = "GRS1";
    record += le(tag.size(), 4) + tag;
    record += le(key.size(), 4) + key;
    record += le(payload.size(), 4) + payload;
    record += le(fnv1a(record, kFnvBasis), 8);
    writeBytes(resultStore().recordPath(key), record);

    std::string got;
    ASSERT_TRUE(resultStore().lookup(key, got));
    EXPECT_EQ(got, payload);
    expectSameStats(live, cachedSimulate(m, wl));
    ResultStore::Counters c = resultStore().counters();
    EXPECT_EQ(c.hits, 2u);
    EXPECT_EQ(c.misses, 0u);

    ResultStore writer;
    ASSERT_TRUE(writer.open(dir_ + "/written"));
    writer.store(key, payload);
    EXPECT_EQ(fileBytes(writer.recordPath(key)), record);

    EXPECT_EQ(fs::path(resultStore().recordPath("key-A")).filename(),
              "71134af295f2637683e21c463b932560.grs");
}

TEST_F(ResultStoreTest, RunStatsSerializationRoundTripsExactly)
{
    // A phase-adaptive run exercises every field: residency spread,
    // relocks and a nonempty reconfiguration trace.
    MachineConfig m = MachineConfig::mcdPhaseAdaptive();
    WorkloadParams wl = tinyWorkload();
    wl.sim_instrs = 6'000;
    RunStats fresh = simulate(m, wl);

    RunStats back;
    ASSERT_TRUE(deserializeRunStats(serializeRunStats(fresh), back));
    expectSameStats(fresh, back);
    EXPECT_EQ(fresh.benchmark, back.benchmark);
    EXPECT_EQ(fresh.config, back.config);
    ASSERT_EQ(fresh.trace.events().size(), back.trace.events().size());
    for (size_t i = 0; i < fresh.trace.events().size(); ++i) {
        const ReconfigEvent &a = fresh.trace.events()[i];
        const ReconfigEvent &b = back.trace.events()[i];
        EXPECT_EQ(a.committed_instrs, b.committed_instrs);
        EXPECT_EQ(a.structure, b.structure);
        EXPECT_EQ(a.from_index, b.from_index);
        EXPECT_EQ(a.to_index, b.to_index);
    }

    // Malformed payloads must fail cleanly, never crash.
    std::string bytes = serializeRunStats(fresh);
    RunStats scratch;
    EXPECT_FALSE(deserializeRunStats("", scratch));
    EXPECT_FALSE(deserializeRunStats(
        bytes.substr(0, bytes.size() / 2), scratch));
    EXPECT_FALSE(deserializeRunStats(bytes + "x", scratch));
}

TEST_F(ResultStoreTest, ChipRunStatsSerializationRoundTripsExactly)
{
    ChipConfig cc;
    cc.machine = MachineConfig::mcdProgram({});
    cc.cores = 2;
    std::vector<WorkloadParams> mix{
        perCoreWorkload(tinyWorkload(), 0),
        perCoreWorkload(tinyWorkload(), 1)};
    Chip chip(cc, mix);
    ChipRunStats fresh = chip.run();

    ChipRunStats back;
    ASSERT_TRUE(deserializeChipRunStats(
        serializeChipRunStats(fresh), back));
    ASSERT_EQ(fresh.cores.size(), back.cores.size());
    for (size_t c = 0; c < fresh.cores.size(); ++c)
        expectSameStats(fresh.cores[c], back.cores[c]);
    EXPECT_EQ(fresh.total_committed, back.total_committed);
    EXPECT_EQ(fresh.makespan_ps, back.makespan_ps);
    EXPECT_EQ(fresh.l2_accesses, back.l2_accesses);
    EXPECT_EQ(fresh.l2_misses, back.l2_misses);
    EXPECT_EQ(fresh.bank_conflicts, back.bank_conflicts);
    EXPECT_EQ(fresh.bank_mshr_waits, back.bank_mshr_waits);
    EXPECT_EQ(fresh.fill_merges, back.fill_merges);
    EXPECT_EQ(fresh.invalidations, back.invalidations);
    EXPECT_EQ(fresh.ownership_transfers, back.ownership_transfers);
}

TEST_F(ResultStoreTest, CachedSimulateHitsAfterMiss)
{
    configureResultStore(dir_);
    ASSERT_TRUE(resultStore().enabled());

    MachineConfig m = MachineConfig::bestSynchronous();
    WorkloadParams wl = tinyWorkload();
    RunStats live = simulate(m, wl);

    RunStats cold = cachedSimulate(m, wl);
    expectSameStats(live, cold);
    ResultStore::Counters c = resultStore().counters();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.stores, 1u);

    RunStats warm = cachedSimulate(m, wl);
    expectSameStats(live, warm);
    EXPECT_EQ(warm.benchmark, live.benchmark);
    EXPECT_EQ(warm.config, live.config);
    c = resultStore().counters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.rejects, 0u);
}

TEST_F(ResultStoreTest, DisabledStoreIsInertAndTouchesNothing)
{
    // No configure: the default store must be disabled (the env var
    // is not set in the test environment).
    ASSERT_FALSE(resultStore().enabled());
    MachineConfig m = MachineConfig::bestSynchronous();
    WorkloadParams wl = tinyWorkload();
    expectSameStats(simulate(m, wl), cachedSimulate(m, wl));
    std::string payload;
    EXPECT_FALSE(resultStore().lookup("anything", payload));
    resultStore().store("anything", "bytes"); // no-op, no crash.
    EXPECT_FALSE(fs::exists(dir_));
}

TEST_F(ResultStoreTest, TruncatedRecordDegradesToMiss)
{
    configureResultStore(dir_);
    MachineConfig m = MachineConfig::bestSynchronous();
    WorkloadParams wl = tinyWorkload();
    RunStats live = cachedSimulate(m, wl);

    std::string key = resultKey(m, wl);
    std::string path = resultStore().recordPath(key);
    std::string good = fileBytes(path);
    ASSERT_GT(good.size(), 16u);

    // Every truncation point — including an empty file — must reject
    // and then recompute the exact result.
    for (size_t keep : {size_t{0}, size_t{7}, good.size() / 2,
                        good.size() - 1}) {
        SCOPED_TRACE(keep);
        writeBytes(path, good.substr(0, keep));
        std::string payload;
        EXPECT_FALSE(resultStore().lookup(key, payload));
        expectSameStats(live, cachedSimulate(m, wl)); // recomputed...
        std::string again;
        EXPECT_TRUE(resultStore().lookup(key, again)); // ...restored.
    }
    EXPECT_GT(resultStore().counters().rejects, 0u);
}

TEST_F(ResultStoreTest, FlippedByteDegradesToMiss)
{
    configureResultStore(dir_);
    MachineConfig m = MachineConfig::bestSynchronous();
    WorkloadParams wl = tinyWorkload();
    RunStats live = cachedSimulate(m, wl);

    std::string key = resultKey(m, wl);
    std::string path = resultStore().recordPath(key);
    std::string good = fileBytes(path);

    // Flip one byte in every region of the record: magic, header,
    // middle (payload), and the checksum itself.
    for (size_t at : {size_t{0}, size_t{9}, good.size() / 2,
                      good.size() - 3}) {
        SCOPED_TRACE(at);
        std::string bad = good;
        bad[at] = static_cast<char>(bad[at] ^ 0x40);
        writeBytes(path, bad);
        std::string payload;
        EXPECT_FALSE(resultStore().lookup(key, payload));
        expectSameStats(live, cachedSimulate(m, wl));
    }
}

TEST_F(ResultStoreTest, NonRegularOrOversizedRecordDegradesToMiss)
{
    // Whatever sits at a record path, lookup must count a reject and a
    // miss and the sweep must recompute: a directory (whose size
    // would otherwise become an allocation), a FIFO without a writer
    // (which must not block the reader) and a file above the record
    // size cap.
    configureResultStore(dir_);
    MachineConfig m = MachineConfig::bestSynchronous();
    WorkloadParams wl = tinyWorkload();
    const RunStats live = simulate(m, wl);
    const std::string key = resultKey(m, wl);
    const std::string path = resultStore().recordPath(key);
    std::string payload;

    // The recompute cannot publish over a directory; that failure is
    // logged and ignored.
    ASSERT_TRUE(fs::create_directories(path));
    EXPECT_FALSE(resultStore().lookup(key, payload));
    expectSameStats(live, cachedSimulate(m, wl));
    ResultStore::Counters c = resultStore().counters();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, 2u);
    EXPECT_EQ(c.rejects, 2u);
    EXPECT_EQ(c.stores, 0u);
    fs::remove(path);

    // The recompute's record replaces the FIFO.
    ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
    EXPECT_FALSE(resultStore().lookup(key, payload));
    expectSameStats(live, cachedSimulate(m, wl));
    c = resultStore().counters();
    EXPECT_EQ(c.misses, 4u);
    EXPECT_EQ(c.rejects, 4u);
    EXPECT_EQ(c.stores, 1u);
    EXPECT_TRUE(resultStore().lookup(key, payload));

    // A sparse file just above the 64 MiB cap.
    fs::resize_file(path, (std::uintmax_t{64} << 20) + 1);
    EXPECT_FALSE(resultStore().lookup(key, payload));
    expectSameStats(live, cachedSimulate(m, wl));
    c = resultStore().counters();
    EXPECT_EQ(c.misses, 6u);
    EXPECT_EQ(c.rejects, 6u);
    EXPECT_EQ(c.stores, 2u);
    EXPECT_TRUE(resultStore().lookup(key, payload));
}

TEST_F(ResultStoreTest, StaleCodeVersionTagDegradesToMiss)
{
    MachineConfig m = MachineConfig::bestSynchronous();
    WorkloadParams wl = tinyWorkload();
    std::string key = resultKey(m, wl);

    // The previous tag predates the clock-skip landing-edge fix,
    // which changed simulated timing: its rows must miss too.
    for (const char *tag :
         {"gals-results-v0:ancient", "gals-results-v1:pr8"}) {
        SCOPED_TRACE(tag);
        const std::string dir = dir_ + "/" + tag;

        // A record written by an older simulator version...
        ResultStore old_version;
        ASSERT_TRUE(old_version.open(dir, tag));
        old_version.store(key, "payload from an older simulator");
        std::string payload;
        ASSERT_TRUE(old_version.lookup(key, payload));

        // ...is structurally intact but must be rejected by the
        // current version and transparently recomputed.
        configureResultStore(dir);
        EXPECT_FALSE(resultStore().lookup(key, payload));
        EXPECT_EQ(resultStore().counters().rejects, 1u);
        expectSameStats(simulate(m, wl), cachedSimulate(m, wl));
        EXPECT_TRUE(resultStore().lookup(key, payload));
    }
}

TEST_F(ResultStoreTest, ForeignRecordAtCollidingPathDegradesToMiss)
{
    // Simulate a 128-bit hash collision: a checksum-valid record for
    // key A sitting at key B's path. The full-key comparison inside
    // the record must reject it.
    configureResultStore(dir_);
    resultStore().store("key-A", "payload-A");
    std::string a_path = resultStore().recordPath("key-A");
    std::string b_path = resultStore().recordPath("key-B");
    fs::copy_file(a_path, b_path);

    std::string payload;
    EXPECT_FALSE(resultStore().lookup("key-B", payload));
    EXPECT_EQ(resultStore().counters().rejects, 1u);
    EXPECT_TRUE(resultStore().lookup("key-A", payload));
    EXPECT_EQ(payload, "payload-A");
}

TEST_F(ResultStoreTest, UnusableDirectoryDisablesWithFallback)
{
    // A path that cannot be a directory (parent is a file): open must
    // warn and leave the store disabled — never crash (the
    // threadCountFromEnv logged-fallback contract).
    fs::create_directories(dir_);
    std::string file = dir_ + "/plain_file";
    writeBytes(file, "not a directory");

    ResultStore store;
    EXPECT_FALSE(store.open(file + "/subdir"));
    EXPECT_FALSE(store.enabled());

    // And the global configure path degrades the same way: caching
    // off, simulation still correct.
    configureResultStore(file + "/subdir");
    EXPECT_FALSE(resultStore().enabled());
    MachineConfig m = MachineConfig::bestSynchronous();
    WorkloadParams wl = tinyWorkload();
    expectSameStats(simulate(m, wl), cachedSimulate(m, wl));
}

TEST_F(ResultStoreTest, ConcurrentThreadWritersStayCorrect)
{
    configureResultStore(dir_);
    constexpr int kThreads = 4;
    constexpr int kKeys = 8;

    // All threads hammer the same small key set; readers must only
    // ever observe a miss or the exact expected payload.
    std::vector<std::thread> threads;
    std::atomic<int> bad{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 50; ++round) {
                int k = (t + round) % kKeys;
                std::string key = "shared-key-" + std::to_string(k);
                std::string expect = "payload-" + std::to_string(k);
                resultStore().store(key, expect);
                std::string got;
                if (resultStore().lookup(key, got) && got != expect)
                    bad.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(bad.load(), 0);

    for (int k = 0; k < kKeys; ++k) {
        std::string got;
        ASSERT_TRUE(resultStore().lookup(
            "shared-key-" + std::to_string(k), got));
        EXPECT_EQ(got, "payload-" + std::to_string(k));
    }
}

TEST_F(ResultStoreTest, ConcurrentProcessWritersStayCorrect)
{
    // Two child processes race writes of the same keys into one cache
    // dir (the sweep_shard.py topology). Atomic temp+rename plus
    // deterministic payloads make last-wins harmless; afterwards every
    // record must be intact and exact.
    configureResultStore(dir_);
    constexpr int kKeys = 16;
    auto key_of = [](int k) { return "proc-key-" + std::to_string(k); };
    auto payload_of = [](int k) {
        return std::string("proc-payload-") + std::to_string(k) +
               std::string(1000, static_cast<char>('a' + k % 26));
    };

    pid_t pids[2];
    for (int child = 0; child < 2; ++child) {
        pids[child] = ::fork();
        ASSERT_GE(pids[child], 0);
        if (pids[child] == 0) {
            // Child: write every key many times, opposite orders so
            // the two processes collide on the same names.
            for (int round = 0; round < 25; ++round) {
                for (int i = 0; i < kKeys; ++i) {
                    int k = child == 0 ? i : kKeys - 1 - i;
                    resultStore().store(key_of(k), payload_of(k));
                }
            }
            ::_exit(0);
        }
    }
    for (pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    for (int k = 0; k < kKeys; ++k) {
        std::string got;
        ASSERT_TRUE(resultStore().lookup(key_of(k), got)) << k;
        EXPECT_EQ(got, payload_of(k)) << k;
    }
    // No abandoned temp files (every write published or cleaned up).
    for (const auto &entry : fs::directory_iterator(dir_)) {
        EXPECT_EQ(entry.path().extension(), ".grs")
            << entry.path().string();
    }
}

TEST_F(ResultStoreTest, ShardResumeAssemblesFreshAndCachedRows)
{
    // A killed shard run resumes from the store: shard 0/2 completes
    // (cold), then the full sweep reruns — half hits, half fresh —
    // and the result is byte-identical to a cache-off sweep.
    WorkloadParams wl = tinyWorkload();
    wl.sim_instrs = 400;
    wl.warmup_instrs = 100;

    std::string off_json = adaptiveSweepShardJson(
        sweepAdaptiveRaw(wl, ShardSpec{}), wl.name, ShardSpec{});

    configureResultStore(dir_);
    sweepAdaptiveRaw(wl, ShardSpec{0, 2}); // the "killed" run's half.
    ResultStore::Counters c = resultStore().counters();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, 128u);

    std::string resumed_json = adaptiveSweepShardJson(
        sweepAdaptiveRaw(wl, ShardSpec{}), wl.name, ShardSpec{});
    c = resultStore().counters();
    EXPECT_EQ(c.hits, 128u);   // shard 0's rows came from the store,
    EXPECT_EQ(c.misses, 256u); // shard 1's 128 were computed fresh.
    EXPECT_EQ(resumed_json, off_json);
}

TEST_F(ResultStoreTest, WarmSweepIsByteIdenticalAndFaster)
{
    // The acceptance gate: a >=64-point sweep rerun warm must be >=5x
    // faster wall-clock than the cold run and byte-identical to the
    // cache-off output. The window is sized so the cold run does real
    // work (~100s of ms) while the warm run is pure record reads.
    WorkloadParams wl = tinyWorkload();
    wl.sim_instrs = 4'000;
    wl.warmup_instrs = 800;

    std::string off_json = adaptiveSweepShardJson(
        sweepAdaptiveRaw(wl, ShardSpec{}), wl.name, ShardSpec{});

    using clock = std::chrono::steady_clock;
    configureResultStore(dir_);

    auto t0 = clock::now();
    sweepAdaptiveRaw(wl, ShardSpec{});
    auto t1 = clock::now();
    std::string warm_json = adaptiveSweepShardJson(
        sweepAdaptiveRaw(wl, ShardSpec{}), wl.name, ShardSpec{});
    auto t2 = clock::now();

    EXPECT_EQ(warm_json, off_json);
    ResultStore::Counters c = resultStore().counters();
    EXPECT_EQ(c.misses, 256u);
    EXPECT_EQ(c.hits, 256u);
    EXPECT_EQ(c.rejects, 0u);

    double cold_s = std::chrono::duration<double>(t1 - t0).count();
    double warm_s = std::chrono::duration<double>(t2 - t1).count();
    EXPECT_GE(cold_s, warm_s * 5.0)
        << "cold " << cold_s << "s vs warm " << warm_s << "s";
}
