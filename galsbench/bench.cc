/**
 * @file
 * galsbench: host-speed benchmark of the GALS/MCD simulator.
 *
 * One process runs one workload (single_core, chip, study or
 * store_warm) against the simulator's public entry points only, and
 * prints the result as one JSON line (the last line of stdout):
 *  - untraced (--trace 0): the end-to-end metrics, measured over whole
 *    passes of the workload for about --seconds seconds;
 *  - traced (--trace 1): the per-layer metrics, each timed from
 *    outside one layer (src/<module>) with the benchmark's own spans,
 *    which are kept in memory and written to --trace-out at exit.
 *
 * Every leaf result is hashed from its value-exact serialization and
 * checked against the pins for the default seed (0) and against its
 * own repeats within the run. The benchmark measures host speed only;
 * it checks simulated outputs for identity, not for fidelity to the
 * paper. galsbench/RATIONALE.md records why each workload exists and
 * which end-to-end metric each layer metric should move.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/accounting_cache.hh"
#include "cmp/chip.hh"
#include "core/machine_config.hh"
#include "core/processor.hh"
#include "obs/trace.hh"
#include "predictor/hybrid_predictor.hh"
#include "sim/result_store.hh"
#include "sim/simulation.hh"
#include "sim/study.hh"
#include "sim/sweep.hh"
#include "timing/frequency_model.hh"
#include "workload/generator.hh"
#include "workload/suite.hh"

namespace
{

using namespace gals;
namespace fs = std::filesystem;

// ----------------------------------------------------------------------
// Clocks, hashing, statistics.
// ----------------------------------------------------------------------

std::uint64_t
wallNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
wallS()
{
    return static_cast<double>(wallNs()) * 1e-9;
}

/** Process CPU seconds, all threads. */
double
cpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t
fnv1a(const void *data, size_t n,
      std::uint64_t h = 0xcbf29ce484222325ULL)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    return fnv1a(s.data(), s.size(), h);
}

template <typename T>
std::uint64_t
hashValue(const T &v, std::uint64_t h)
{
    return fnv1a(&v, sizeof(v), h);
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Make `v` observable, so the optimizer cannot drop the work that
 * produced it. */
template <typename T>
void
keep(const T &v)
{
    asm volatile("" : : "r"(&v) : "memory");
}

std::string
hex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

unsigned
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ----------------------------------------------------------------------
// Spans: the traced run's record of every call into a layer. Spans
// are kept in memory and written when the run ends; a span's self
// time is its duration minus the time its children cover.
// ----------------------------------------------------------------------

struct SpanRec
{
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;
    int run = 0;
};

class SpanLog
{
  public:
    bool on = false;
    int run_id = 0;

    int
    open(const char *name, int parent)
    {
        std::lock_guard<std::mutex> g(mu_);
        spans_.push_back(SpanRec{name, wallNs(), 0, parent, run_id});
        return static_cast<int>(spans_.size() - 1);
    }

    std::uint64_t
    close(int id)
    {
        std::uint64_t t = wallNs();
        std::lock_guard<std::mutex> g(mu_);
        SpanRec &s = spans_[static_cast<size_t>(id)];
        s.end_ns = t;
        return s.end_ns - s.start_ns;
    }

    /** Write every span plus per-name totals and self times. */
    void
    write(const std::string &path) const
    {
        std::lock_guard<std::mutex> g(mu_);
        std::vector<std::uint64_t> child(spans_.size(), 0);
        for (const SpanRec &s : spans_) {
            if (s.parent >= 0)
                child[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
        }
        struct Agg
        {
            std::uint64_t count = 0, total = 0, self = 0;
        };
        std::map<std::string, Agg> agg;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const SpanRec &s = spans_[i];
            std::uint64_t d = s.end_ns - s.start_ns;
            Agg &a = agg[s.name];
            ++a.count;
            a.total += d;
            a.self += d > child[i] ? d - child[i] : 0;
        }
        std::ofstream f(path);
        if (!f)
            return;
        std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
        f << "{\"schema\": \"galsbench-spans-v1\",\n \"summary\": {";
        bool first = true;
        for (const auto &[name, a] : agg) {
            f << (first ? "\n  " : ",\n  ") << '"' << name
              << "\": {\"count\": " << a.count
              << ", \"total_ns\": " << a.total
              << ", \"self_ns\": " << a.self << '}';
            first = false;
        }
        f << "},\n \"spans\": [";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const SpanRec &s = spans_[i];
            f << (i ? ",\n  " : "\n  ") << "{\"id\": " << i
              << ", \"name\": \"" << s.name << "\", \"start_ns\": "
              << s.start_ns - t0 << ", \"end_ns\": " << s.end_ns - t0
              << ", \"parent\": " << s.parent << ", \"run\": " << s.run
              << '}';
        }
        f << "]}\n";
    }

  private:
    mutable std::mutex mu_;
    std::vector<SpanRec> spans_;
};

SpanLog g_spans;
/** Innermost open span of the calling thread (parent of the next). */
thread_local int t_cur_span = -1;

/** Times one call into a layer; a recorded span when tracing. */
class Span
{
  public:
    explicit Span(const char *name)
        : start_(wallNs())
    {
        if (g_spans.on) {
            parent_ = t_cur_span;
            id_ = g_spans.open(name, parent_);
            t_cur_span = id_;
        }
    }
    ~Span() { stop(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span; returns its duration in ns (idempotent). */
    std::uint64_t
    stop()
    {
        if (!done_) {
            done_ = true;
            dur_ = wallNs() - start_;
            if (id_ >= 0) {
                g_spans.close(id_);
                t_cur_span = parent_;
            }
        }
        return dur_;
    }

  private:
    std::uint64_t start_;
    std::uint64_t dur_ = 0;
    int id_ = -1;
    int parent_ = -1;
    bool done_ = false;
};

// ----------------------------------------------------------------------
// Program environment and inputs.
// ----------------------------------------------------------------------

/** Environment knobs that would change what the program does. */
const char *const kScrubbedEnv[] = {
    "GALS_RESULT_CACHE", "GALS_TRACE", "GALS_METRICS", "GALS_KERNEL",
    "GALS_SWEEP",        "GALS_SHARDS",
};

void
setThreads(unsigned sweep, unsigned chip)
{
    setenv("GALS_THREADS", std::to_string(sweep).c_str(), 1);
    setenv("GALS_CHIP_THREADS", std::to_string(chip).c_str(), 1);
}

constexpr int kStoreWindow = 10'000;
constexpr int kStoreWarmup = 1'000;

/** Everything the program is fed, generated from the seed. */
struct Inputs
{
    std::vector<WorkloadParams> suite;
    /** The order the two 8-core mixes rotate through (rotations 0
     * and 8). */
    std::vector<WorkloadParams> mix_order;
    WorkloadParams sharing_base;
    /** store_warm: one short-window, single-phase benchmark per
     * suite class. */
    std::vector<WorkloadParams> store_wls;
};

/**
 * Seed 0 keeps the suite's own per-benchmark seeds, the chip mixes at
 * suite rotations 0 and 8, and the first single-phase benchmark of each
 * suite class for store_warm. Any other seed remixes every
 * WorkloadParams.seed and picks the chip mixes and the store_warm
 * benchmarks from itself. Its mixes take two base-window benchmarks of
 * each suite class apiece, so their size and cost per instruction stay
 * comparable from seed to seed.
 */
Inputs
makeInputs(std::uint64_t seed)
{
    Inputs in;
    in.suite = benchmarkSuite();
    const std::uint64_t s = splitmix64(seed);
    if (seed != 0) {
        for (WorkloadParams &w : in.suite)
            w.seed = splitmix64(w.seed ^ s);
    }
    for (const WorkloadParams &w : in.suite) {
        if (w.name == "gzip")
            in.sharing_base = w;
    }

    const char *classes[] = {"MediaBench", "Olden", "SPEC2000-Int",
                             "SPEC2000-Fp"};
    std::vector<std::vector<const WorkloadParams *>> members(4);
    for (size_t c = 0; c < 4; ++c) {
        for (const WorkloadParams &w : in.suite) {
            if (w.suite == classes[c])
                members[c].push_back(&w);
        }
        if (seed != 0) {
            // Seeded Fisher-Yates shuffle within the class.
            std::vector<const WorkloadParams *> &m = members[c];
            for (size_t i = m.size() - 1; i > 0; --i)
                std::swap(m[i], m[splitmix64(s + c * 64 + i) % (i + 1)]);
        }
    }
    if (seed == 0) {
        in.mix_order = in.suite;
    } else {
        // Two benchmarks of each class per 8-core mix, all at the
        // suite's base window, so every seeded chip simulates the same
        // number of instructions.
        std::uint64_t base = in.suite.front().sim_instrs;
        for (const WorkloadParams &w : in.suite)
            base = std::min(base, w.sim_instrs);
        std::vector<std::vector<const WorkloadParams *>> pool(4);
        for (size_t c = 0; c < 4; ++c) {
            for (const WorkloadParams *m : members[c]) {
                if (m->sim_instrs == base)
                    pool[c].push_back(m);
            }
        }
        for (size_t i = 0; i < 4; ++i) {
            for (size_t c = 0; c < 4; ++c)
                in.mix_order.push_back(*pool[c][i % pool[c].size()]);
        }
    }
    // Single-phase benchmarks only: their keys and records are alike
    // in size, so the store's cost does not depend on the pick.
    for (size_t c = 0; c < 4; ++c) {
        WorkloadParams w = **std::find_if(
            members[c].begin(), members[c].end(),
            [](const WorkloadParams *m) { return m->phases.size() == 1; });
        w.sim_instrs = kStoreWindow;
        w.warmup_instrs = kStoreWarmup;
        in.store_wls.push_back(w);
    }
    return in;
}

/** Instructions one leaf simulates: warmup plus measured window. */
std::uint64_t
leafInstrs(const WorkloadParams &w)
{
    return w.warmup_instrs + w.sim_instrs;
}

struct NamedMachine
{
    const char *tag;
    MachineConfig mc;
};

std::vector<NamedMachine>
paperMachines()
{
    return {{"sync", MachineConfig::bestSynchronous()},
            {"program", MachineConfig::mcdProgram({})},
            {"phase", MachineConfig::mcdPhaseAdaptive()}};
}

std::string
idx2(size_t i)
{
    char buf[8];
    std::snprintf(buf, sizeof(buf), "%02zu", i);
    return buf;
}

// ----------------------------------------------------------------------
// Correctness: value-exact leaf hashes against pins and repeats.
// ----------------------------------------------------------------------

std::uint64_t
hashRun(const RunStats &s)
{
    return fnv1a(serializeRunStats(s));
}

std::uint64_t
hashChip(const ChipRunStats &s)
{
    return fnv1a(serializeChipRunStats(s));
}

std::uint64_t
hashRow(const BenchmarkResult &r)
{
    std::uint64_t h = fnv1a(r.name);
    h = hashValue(r.sync_ns, h);
    h = hashValue(r.program_ns, h);
    h = hashValue(r.phase_ns, h);
    h = hashValue(r.program_cfg.icache, h);
    h = hashValue(r.program_cfg.dcache, h);
    h = hashValue(r.program_cfg.iq_int, h);
    h = hashValue(r.program_cfg.iq_fp, h);
    h = hashValue(r.runs, h);
    return hashValue(hashRun(r.phase_stats), h);
}

std::uint64_t
hashPoints(const std::vector<AdaptivePointRuntime> &rows)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const AdaptivePointRuntime &p : rows) {
        h = hashValue(p.point_index, h);
        h = hashValue(p.runtime_ns, h);
        h = fnv1a(p.cfg.str(), h);
    }
    return h;
}

class Checker
{
  public:
    Checker(std::uint64_t seed, std::map<std::string, std::uint64_t> pins,
            bool recording)
        : seed_(seed), pins_(std::move(pins)), recording_(recording)
    {}

    /** One checked leaf operation: `ok` is false when it failed on
     * its own terms (e.g. a warm row that differs from its cold
     * row); its hash must also match every earlier result for the
     * same id in this run and, when `pinned`, the pin (seed 0). */
    void
    check(const std::string &id, std::uint64_t h, bool ok = true,
          bool pinned = true)
    {
        std::lock_guard<std::mutex> g(mu_);
        ++attempted_;
        auto [it, fresh] = seen_.emplace(id, h);
        bool good = ok && (fresh || it->second == h);
        if (pinned && seed_ == 0 && !recording_) {
            auto pin = pins_.find(id);
            good = good && pin != pins_.end() && pin->second == h;
        }
        if (!good) {
            ++failed_;
            if (failures_.size() < 10)
                failures_.push_back(id);
        }
    }

    /** A leaf that threw instead of returning a result. */
    void
    fail(const std::string &id)
    {
        std::lock_guard<std::mutex> g(mu_);
        ++attempted_;
        ++failed_;
        if (failures_.size() < 10)
            failures_.push_back(id);
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }
    const std::map<std::string, std::uint64_t> &seen() const { return seen_; }

  private:
    std::uint64_t seed_;
    std::map<std::string, std::uint64_t> pins_;
    bool recording_;
    std::mutex mu_;
    std::map<std::string, std::uint64_t> seen_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

std::map<std::string, std::uint64_t>
loadPins(const std::string &path)
{
    std::map<std::string, std::uint64_t> pins;
    std::ifstream f(path);
    std::string line;
    while (std::getline(f, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        std::string id, h;
        if (ss >> id >> h)
            pins[id] = std::strtoull(h.c_str(), nullptr, 16);
    }
    return pins;
}

// ----------------------------------------------------------------------
// Workloads. setup() is what a user pays before the timed phase;
// pass() is one complete, checked unit of the timed phase.
// ----------------------------------------------------------------------

/** A per-layer metric as the traced run reports it. */
struct Metric
{
    double value = 0;
    const char *unit = "";
};
using Metrics = std::map<std::string, Metric>;

struct PassCost
{
    double wall_s = 0;
    double cpu_s = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    virtual const char *name() const = 0;
    /** Suite build, warm-up leaves, store prefill. Run several times;
     * the warm-up leaves and the prefill are checked like any leaf,
     * so the set-ups are also repeats of each other. */
    virtual void setup(Checker &ck) = 0;
    /** One pass: every leaf once, each checked. */
    virtual void pass(Checker &ck) = 0;
    /** Checks of the last pass that must stay out of its timing. */
    virtual void verify(Checker &) {}
    /** Simulated instructions one pass delivers (all cores). */
    virtual std::uint64_t instrsPerPass() const = 0;
    /** Leaf results one pass delivers. */
    virtual std::uint64_t pointsPerPass() const = 0;
    /** Thread counts the timed phase uses. */
    unsigned sweep_threads = 1;
    unsigned chip_threads = 1;
    /** Passes every timed phase makes, however long they take: two
     * for the within-run repeat check, more where the median needs
     * them. */
    size_t min_passes = 2;
    /** Set-ups per run; setup_s is their median. */
    int setup_reps = 5;

    PassCost
    timedPass(Checker &ck)
    {
        setThreads(sweep_threads, chip_threads);
        double w0 = wallS(), c0 = cpuS();
        pass(ck);
        PassCost cost{wallS() - w0, cpuS() - c0};
        verify(ck);
        return cost;
    }

    /**
     * The pass cost the end-to-end metrics report. The host shares its
     * cores with other machines and its speed changes from second to
     * second, so this is a median: by default the median pass (the
     * mean of two).
     */
    virtual PassCost
    representative(const std::vector<PassCost> &passes) const
    {
        std::vector<double> wall, cpu;
        for (const PassCost &p : passes) {
            wall.push_back(p.wall_s);
            cpu.push_back(p.cpu_s);
        }
        return PassCost{median(wall), median(cpu)};
    }

    /** The same pass with spans on; may add per-layer metrics. */
    virtual PassCost
    tracedPass(Checker &ck, Metrics &)
    {
        Span s("workload.pass");
        return timedPass(ck);
    }

  protected:
    Workload(std::uint64_t seed, unsigned np)
        : seed_(seed), np_(np)
    {}
    std::uint64_t seed_;
    unsigned np_;
    Inputs in_;

    /** The first benchmark on each paper machine, checked under its
     * single_core leaf ids. */
    void
    warmupLeaves(Checker &ck)
    {
        for (const NamedMachine &m : paperMachines())
            ck.check(std::string("single_core/b00/") + m.tag,
                     hashRun(simulate(m.mc, in_.suite.front())));
    }
};

/** The three paper machines over all 40 benchmarks, one thread. */
class SingleCore : public Workload
{
  public:
    SingleCore(std::uint64_t seed, unsigned np)
        : Workload(seed, np)
    {}
    const char *name() const override { return "single_core"; }

    void
    setup(Checker &ck) override
    {
        in_ = makeInputs(seed_);
        machines_ = paperMachines();
        warmupLeaves(ck);
    }

    void
    pass(Checker &ck) override
    {
        for (size_t b = 0; b < in_.suite.size(); ++b) {
            for (const NamedMachine &m : machines_)
                ck.check(leafId(b, m), hashRun(simulate(m.mc, in_.suite[b])));
        }
    }

    std::uint64_t
    instrsPerPass() const override
    {
        std::uint64_t n = 0;
        for (const WorkloadParams &w : in_.suite)
            n += leafInstrs(w) * machines_.size();
        return n;
    }

    std::uint64_t
    pointsPerPass() const override
    {
        return in_.suite.size() * machines_.size();
    }

    static std::string
    leafId(size_t b, const NamedMachine &m)
    {
        return std::string("single_core/b") + idx2(b) + "/" + m.tag;
    }

    /** Per-layer view of the same pass: the Processor's constructor
     * and run() timed separately, plus the counts the core layers
     * report. Fills `out` with core/cache/predictor/control metrics
     * and records the per-benchmark Processor::run ns on mcdProgram
     * (workload.gen_share's denominator). */
    void corePass(Checker &ck, Metrics &out);

    PassCost
    tracedPass(Checker &ck, Metrics &out) override
    {
        double w0 = wallS(), c0 = cpuS();
        corePass(ck, out);
        return PassCost{wallS() - w0, cpuS() - c0};
    }

    const std::vector<double> &programRunNs() const { return program_run_ns_; }

    const Inputs &inputs() const { return in_; }

  private:
    std::vector<NamedMachine> machines_;
    std::vector<double> program_run_ns_;
};

void
SingleCore::corePass(Checker &ck, Metrics &out)
{
    setThreads(1, 1);
    Span all("core.pass");
    program_run_ns_.assign(in_.suite.size(), 0.0);
    double ctor_ns = 0;
    std::uint64_t leaves = 0;
    std::map<std::string, double> run_ns, run_instrs;
    std::uint64_t committed = 0, flushes = 0, l1i = 0, l1d = 0, l2 = 0;
    std::uint64_t mispredicts = 0, relocks = 0, reconfigs = 0;
    std::uint64_t phase_runs = 0;
    for (size_t b = 0; b < in_.suite.size(); ++b) {
        const WorkloadParams &wl = in_.suite[b];
        for (const NamedMachine &m : machines_) {
            Span leaf("core.leaf");
            Span ctor("core.ctor");
            Processor cpu(m.mc, wl);
            ctor_ns += static_cast<double>(ctor.stop());
            Span run("core.run");
            RunStats s = cpu.run();
            auto ns = static_cast<double>(run.stop());
            leaf.stop();
            ck.check(leafId(b, m), hashRun(s));
            ++leaves;
            run_ns[m.tag] += ns;
            run_instrs[m.tag] += static_cast<double>(leafInstrs(wl));
            if (std::strcmp(m.tag, "program") == 0)
                program_run_ns_[b] = ns;
            committed += s.committed;
            flushes += s.flushes;
            l1i += s.l1i_misses;
            l1d += s.l1d_misses;
            l2 += s.l2_misses;
            mispredicts += s.mispredicts;
            if (m.mc.phase_adaptive) {
                ++phase_runs;
                relocks += s.relocks;
                reconfigs += s.trace.events().size();
            }
        }
    }
    auto pki = [&](std::uint64_t n) {
        return 1000.0 * static_cast<double>(n) /
               static_cast<double>(committed);
    };
    out["core.ctor_us"] = {
        ctor_ns / 1000.0 / static_cast<double>(leaves), "us"};
    for (const NamedMachine &m : machines_)
        out[std::string("core.run_ns_per_instr.") + m.tag] = {
            run_ns[m.tag] / run_instrs[m.tag], "ns/instr"};
    out["core.flush_pki"] = {pki(flushes), "1/kinstr"};
    out["cache.l1i_mpki"] = {pki(l1i), "1/kinstr"};
    out["cache.l1d_mpki"] = {pki(l1d), "1/kinstr"};
    out["cache.l2_mpki"] = {pki(l2), "1/kinstr"};
    out["predictor.mispredict_pki"] = {pki(mispredicts), "1/kinstr"};
    const auto runs = static_cast<double>(phase_runs);
    out["control.relocks_per_run"] = {static_cast<double>(relocks) / runs,
                                      "1/run"};
    out["control.reconfigs_per_run"] = {
        static_cast<double>(reconfigs) / runs, "1/run"};
}

/** Multiprogrammed and sharing chips on mcdProgram({}). */
class ChipLoad : public Workload
{
  public:
    ChipLoad(std::uint64_t seed, unsigned np)
        : Workload(seed, np)
    {
        // Half of nproc: the stepper's workers spin at every round
        // barrier, so on a shared host one descheduled worker stalls
        // all of them, and at nproc workers the timings measure the
        // host's other tenants (galsbench/RATIONALE.md).
        chip_threads = std::clamp(np / 2, 1u, 8u);
        min_passes = 3;
    }
    const char *name() const override { return "chip"; }

    void
    setup(Checker &ck) override
    {
        in_ = makeInputs(seed_);
        chips_.clear();
        for (int r : {0, 8})
            chips_.push_back(makeChip(multiprogrammedMix(in_.mix_order, 8, r)));
        for (const char *kind : {"producer-consumer", "migratory"})
            chips_.push_back(makeChip(sharingMix(in_.sharing_base, 4, kind)));
        warmupLeaves(ck);
    }

    void
    pass(Checker &ck) override
    {
        chip_wall_.resize(chips_.size());
        chip_cpu_.resize(chips_.size());
        for (size_t i = 0; i < chips_.size(); ++i) {
            double w0 = wallS(), c0 = cpuS();
            runOne(ck, i, workersFor(i, chip_threads));
            chip_wall_[i].push_back(wallS() - w0);
            chip_cpu_[i].push_back(cpuS() - c0);
        }
    }

    /** Each chip at its median over the passes, summed: the chips
     * differ too much in speed for a median across them. */
    PassCost
    representative(const std::vector<PassCost> &) const override
    {
        PassCost c;
        for (size_t i = 0; i < chip_wall_.size(); ++i) {
            c.wall_s += median(chip_wall_[i]);
            c.cpu_s += median(chip_cpu_[i]);
        }
        return c;
    }

    /** Run chip i with `workers` stepping threads; returns stats. */
    ChipRunStats
    runOne(Checker &ck, size_t i, unsigned workers)
    {
        setenv("GALS_CHIP_THREADS", std::to_string(workers).c_str(), 1);
        Chip chip(chips_[i].first, chips_[i].second);
        ChipRunStats s = chip.run();
        ck.check("chip/" + std::to_string(i), hashChip(s));
        return s;
    }

    unsigned
    workersFor(size_t i, unsigned cap) const
    {
        return std::min(cap, static_cast<unsigned>(chips_[i].first.cores));
    }

    std::uint64_t
    instrsPerPass() const override
    {
        std::uint64_t n = 0;
        for (const auto &c : chips_)
            n += chipInstrs(c.second);
        return n;
    }

    std::uint64_t pointsPerPass() const override { return chips_.size(); }

    static std::uint64_t
    chipInstrs(const std::vector<WorkloadParams> &mix)
    {
        std::uint64_t n = 0;
        for (const WorkloadParams &w : mix)
            n += leafInstrs(w);
        return n;
    }

    /** cmp layer: constructor, sequential and parallel Chip::run. */
    void cmpProbe(Checker &ck, Metrics &out);

  private:
    using ChipSpec = std::pair<ChipConfig, std::vector<WorkloadParams>>;
    std::vector<ChipSpec> chips_;
    /** Per-chip timings of every timed pass. */
    std::vector<std::vector<double>> chip_wall_, chip_cpu_;

    static ChipSpec
    makeChip(std::vector<WorkloadParams> mix)
    {
        ChipConfig cfg;
        cfg.machine = MachineConfig::mcdProgram({});
        cfg.cores = static_cast<int>(mix.size());
        return {cfg, std::move(mix)};
    }
};

void
ChipLoad::cmpProbe(Checker &ck, Metrics &out)
{
    setThreads(1, 1);
    Span all("cmp.probe");
    double ctor_ns = 0, seq_ns = 0, par_ns = 0, par_cpu = 0, instrs = 0;
    std::uint64_t rounds = 0, l2m = 0, bank = 0, mshr = 0, merges = 0,
                  inval = 0, owner = 0;
    for (size_t i = 0; i < chips_.size(); ++i) {
        const auto &[cfg, mix] = chips_[i];
        instrs += static_cast<double>(chipInstrs(mix));
        std::uint64_t h[2] = {0, 0};
        for (int par = 0; par < 2; ++par) {
            unsigned workers = par ? workersFor(i, np_) : 1;
            setenv("GALS_CHIP_THREADS", std::to_string(workers).c_str(), 1);
            Span ctor("cmp.ctor");
            Chip chip(cfg, mix);
            ctor_ns += static_cast<double>(ctor.stop());
            double c0 = cpuS();
            Span run(par ? "cmp.run.par" : "cmp.run.seq");
            ChipRunStats s = chip.run();
            auto ns = static_cast<double>(run.stop());
            h[par] = hashChip(s);
            ck.check("chip/" + std::to_string(i), h[par]);
            if (!par) {
                seq_ns += ns;
                continue;
            }
            par_ns += ns;
            par_cpu += cpuS() - c0;
            rounds += s.parallel_rounds;
            l2m += s.l2_misses;
            bank += s.bank_conflicts;
            mshr += s.bank_mshr_waits;
            merges += s.fill_merges;
            inval += s.invalidations;
            owner += s.ownership_transfers;
        }
    }
    auto pki = [&](std::uint64_t n) {
        return 1000.0 * static_cast<double>(n) / instrs;
    };
    out["cmp.ctor_ms"] = {
        ctor_ns / 1e6 / static_cast<double>(2 * chips_.size()), "ms"};
    out["cmp.run_ns_per_instr.seq"] = {seq_ns / instrs, "ns/instr"};
    out["cmp.run_ns_per_instr.par"] = {par_ns / instrs, "ns/instr"};
    out["cmp.parallel_speedup"] = {seq_ns / par_ns, "ratio"};
    out["cmp.cpu_per_wall.par"] = {par_cpu / (par_ns * 1e-9), "ratio"};
    out["cmp.rounds_per_kinstr"] = {pki(rounds), "1/kinstr"};
    out["cmp.l2_mpki"] = {pki(l2m), "1/kinstr"};
    out["cmp.bank_conflicts_pki"] = {pki(bank), "1/kinstr"};
    out["cmp.mshr_waits_pki"] = {pki(mshr), "1/kinstr"};
    out["cmp.fill_merges_pki"] = {pki(merges), "1/kinstr"};
    out["cmp.invalidations_pki"] = {pki(inval), "1/kinstr"};
    out["cmp.ownership_transfers_pki"] = {pki(owner), "1/kinstr"};
}

/** The Figure-6/Table-9 study, staged, all 40 benchmarks. */
class StudyLoad : public Workload
{
  public:
    StudyLoad(std::uint64_t seed, unsigned np)
        : Workload(seed, np)
    {
        sweep_threads = np;
    }
    const char *name() const override { return "study"; }

    void
    setup(Checker &ck) override
    {
        in_ = makeInputs(seed_);
        warmupLeaves(ck);
    }

    void
    pass(Checker &ck) override
    {
        StudyResult r = runStudy(in_.suite, SweepMode::Staged, false);
        std::uint64_t runs = 0;
        for (size_t b = 0; b < r.benchmarks.size(); ++b) {
            ck.check("study/b" + idx2(b), hashRow(r.benchmarks[b]));
            runs += r.benchmarks[b].runs;
        }
        last_runs_ = runs;
        instrs_ = 0;
        for (size_t b = 0; b < r.benchmarks.size(); ++b)
            instrs_ += r.benchmarks[b].runs * leafInstrs(in_.suite[b]);
    }

    std::uint64_t instrsPerPass() const override { return instrs_; }
    std::uint64_t pointsPerPass() const override { return last_runs_; }

    /** sim layer (study): each row's three calls as runStudy makes
     * them, rows claimed one at a time by `np` threads. */
    void rowProbe(Checker &ck, Metrics &out);

    /** The study traced row by row is the row probe. */
    PassCost
    tracedPass(Checker &ck, Metrics &out) override
    {
        double w0 = wallS(), c0 = cpuS();
        rowProbe(ck, out);
        return PassCost{wallS() - w0, cpuS() - c0};
    }

  private:
    std::uint64_t instrs_ = 0;
    std::uint64_t last_runs_ = 0;
};

void
StudyLoad::rowProbe(Checker &ck, Metrics &out)
{
    // One row per thread at a time: the inner staged sweep runs
    // inline, as it does on a runStudy pool worker.
    setThreads(1, 1);
    const MachineConfig sync = MachineConfig::bestSynchronous();
    const MachineConfig phase = MachineConfig::mcdPhaseAdaptive();
    std::vector<double> row_s(in_.suite.size(), 0.0);
    std::atomic<size_t> next{0};
    std::atomic<std::uint64_t> leaf_runs{0};
    Span all("sim.study.rows");
    const int parent = t_cur_span;
    double w0 = wallS(), c0 = cpuS();
    auto worker = [&]() {
        t_cur_span = parent;
        for (size_t b; (b = next.fetch_add(1)) < in_.suite.size();) {
            const WorkloadParams &wl = in_.suite[b];
            try {
                Span row("sim.study.row");
                BenchmarkResult r;
                r.name = wl.name;
                r.suite = wl.suite;
                {
                    Span s("sim.study.row.sync");
                    r.sync_ns = runtimeNs(cachedSimulate(sync, wl));
                }
                {
                    Span s("sim.study.row.program");
                    ProgramAdaptiveResult pa =
                        findBestAdaptive(wl, SweepMode::Staged);
                    r.program_ns = runtimeNs(pa.best_stats);
                    r.program_cfg = pa.best;
                    r.runs = pa.runs_performed + 2;
                }
                {
                    Span s("sim.study.row.phase");
                    r.phase_stats = cachedSimulate(phase, wl);
                    r.phase_ns = runtimeNs(r.phase_stats);
                }
                row_s[b] = static_cast<double>(row.stop()) * 1e-9;
                leaf_runs += r.runs;
                ck.check("study/b" + idx2(b), hashRow(r));
            } catch (const std::exception &) {
                ck.fail("study/b" + idx2(b));
            }
        }
    };
    {
        std::vector<std::jthread> pool; // joined at the end of the block
        for (unsigned t = 1; t < np_; ++t)
            pool.emplace_back(worker);
        worker();
    }
    double wall = wallS() - w0, cpu = cpuS() - c0;
    all.stop();
    const double row_max = *std::max_element(row_s.begin(), row_s.end());
    out["sim.study.leaf_runs"] = {static_cast<double>(leaf_runs.load()),
                                  "count"};
    out["sim.study.row_s.p50"] = {median(row_s), "s"};
    out["sim.study.row_s.max"] = {row_max, "s"};
    out["sim.study.critical_path_share"] = {row_max / wall, "ratio"};
    out["sim.study.pool_efficiency"] = {cpu / (wall * np_), "ratio"};
}

/** Cold-fill a private store, then serve the sweep warm from it. */
class StoreWarm : public Workload
{
  public:
    StoreWarm(std::uint64_t seed, unsigned np, std::string scratch)
        : Workload(seed, np), scratch_(std::move(scratch))
    {
        // The warm replay runs on one thread: a point is served in
        // microseconds, so at nproc threads the pass times the sweep
        // pool's wake-ups on a shared host, not the store. The cold
        // fill of set-up keeps nproc threads.
        sweep_threads = 1;
        setup_reps = 3; // each is a full cold fill
    }
    ~StoreWarm() override { configureResultStore(""); }
    const char *name() const override { return "store_warm"; }

    void
    setup(Checker &ck) override
    {
        in_ = makeInputs(seed_);
        prefill(ck, scratch_ + "/store" + std::to_string(fills_++));
    }

    /** Fresh store at `dir`, filled by the cold sweep. */
    void
    prefill(Checker &ck, const std::string &dir)
    {
        configureResultStore("");
        if (!dir_.empty())
            fs::remove_all(dir_);
        fs::remove_all(dir);
        dir_ = dir;
        setThreads(np_, 1);
        configureResultStore(dir_);
        cold_.clear();
        for (const WorkloadParams &w : in_.store_wls)
            cold_.push_back(sweepAdaptiveRaw(w));
        for (size_t b = 0; b < cold_.size(); ++b)
            ck.check("store_warm/b" + std::to_string(b), hashPoints(cold_[b]));
    }

    void
    pass(Checker &) override
    {
        ResultStore::Counters c0 = resultStore().counters();
        warm_.clear();
        for (const WorkloadParams &w : in_.store_wls)
            warm_.push_back(sweepAdaptiveRaw(w));
        ResultStore::Counters c1 = resultStore().counters();
        all_hits_ = c1.hits - c0.hits == pointsPerPass() &&
                    c1.misses == c0.misses;
    }

    /** Every warm row equals its cold row, and the pass was all hits. */
    void
    verify(Checker &ck) override
    {
        const auto &warm = warm_;
        const bool all_hits = all_hits_;
        for (size_t b = 0; b < warm.size(); ++b) {
            for (size_t p = 0; p < warm[b].size(); ++p) {
                const AdaptivePointRuntime &x = warm[b][p];
                const AdaptivePointRuntime &y = cold_[b][p];
                bool same = all_hits && x.point_index == y.point_index &&
                            x.cfg == y.cfg && x.runtime_ns == y.runtime_ns;
                ck.check("store_point/b" + std::to_string(b) + "/p" +
                             std::to_string(p),
                         hashValue(x.runtime_ns, hashValue(x.point_index, 0)),
                         same, false);
            }
            ck.check("store_warm/b" + std::to_string(b), hashPoints(warm[b]));
        }
    }

    std::uint64_t
    instrsPerPass() const override
    {
        std::uint64_t n = 0;
        for (const WorkloadParams &w : in_.store_wls)
            n += leafInstrs(w) * 256;
        return n;
    }

    std::uint64_t pointsPerPass() const override { return 4 * 256; }

    /** sim layer (store): key, lookup, deserialize and store calls
     * replayed serially on this workload's records. */
    void storeProbe(Checker &ck, Metrics &out);

    bool filled() const { return !dir_.empty(); }

  private:
    std::string scratch_;
    std::string dir_;
    int fills_ = 0;
    std::vector<std::vector<AdaptivePointRuntime>> cold_;
    std::vector<std::vector<AdaptivePointRuntime>> warm_;
    bool all_hits_ = false;
};

void
StoreWarm::storeProbe(Checker &ck, Metrics &out)
{
    if (!filled()) {
        in_ = makeInputs(seed_);
        prefill(ck, scratch_ + "/store_probe");
    }
    ResultStore warm;
    warm.open(dir_);
    ResultStore sink;
    std::string sink_dir = scratch_ + "/store_sink";
    fs::remove_all(sink_dir);
    sink.open(sink_dir);
    std::vector<AdaptiveConfig> configs = allAdaptiveConfigs();
    std::vector<double> key_us, lookup_us, deser_us, store_us;
    double bytes = 0;
    Span all("sim.store.probe");
    for (int rep = 0; rep < 3; ++rep) {
        for (size_t b = 0; b < in_.store_wls.size(); ++b) {
            const WorkloadParams &wl = in_.store_wls[b];
            for (size_t p = 0; p < configs.size(); ++p) {
                MachineConfig mc = MachineConfig::mcdProgram(configs[p]);
                Span k("sim.store.key");
                std::string key = resultKey(mc, wl);
                key_us.push_back(static_cast<double>(k.stop()) / 1000.0);
                std::string payload;
                Span l("sim.store.lookup");
                bool hit = warm.lookup(key, payload);
                lookup_us.push_back(static_cast<double>(l.stop()) / 1000.0);
                RunStats s;
                Span d("sim.store.deserialize");
                bool ok = hit && deserializeRunStats(payload, s);
                deser_us.push_back(static_cast<double>(d.stop()) / 1000.0);
                ck.check("store_point/b" + std::to_string(b) + "/p" +
                             std::to_string(p),
                         hashValue(runtimeNs(s), hashValue(p, 0)),
                         ok && runtimeNs(s) == cold_[b][p].runtime_ns, false);
                Span st("sim.store.store");
                sink.store(key, serializeRunStats(s));
                store_us.push_back(static_cast<double>(st.stop()) / 1000.0);
                if (rep == 0)
                    bytes += static_cast<double>(
                        fs::file_size(warm.recordPath(key)));
            }
        }
    }
    all.stop();
    ResultStore::Counters c = warm.counters();
    out["sim.store.key_us"] = {median(key_us), "us"};
    out["sim.store.lookup_us.p50"] = {median(lookup_us), "us"};
    out["sim.store.lookup_us.p99"] = {quantile(lookup_us, 0.99), "us"};
    out["sim.store.deserialize_us"] = {median(deser_us), "us"};
    out["sim.store.store_us"] = {median(store_us), "us"};
    const auto points = static_cast<double>(in_.store_wls.size() *
                                            configs.size());
    out["sim.store.hit_ratio"] = {
        static_cast<double>(c.hits) / static_cast<double>(c.hits + c.misses),
        "ratio"};
    out["sim.store.record_bytes"] = {bytes / points, "B"};
    fs::remove_all(sink_dir);
}

// ----------------------------------------------------------------------
// Layer replays fed from the single_core workload's own op streams.
// ----------------------------------------------------------------------

/** workload, cache and predictor layers over every single_core
 * benchmark's generated stream (warmup + window ops). Returns the
 * per-benchmark generation ns. */
std::vector<double>
streamProbe(const std::vector<WorkloadParams> &suite,
            Metrics &out)
{
    Span all("stream.probe");
    const ICacheConfig &ic = icacheConfig(0);
    const DCachePairConfig &dc = dcachePairConfig(0);
    std::vector<double> gen_ns(suite.size(), 0.0);
    double ops_total = 0, l1i_ns = 0, l1d_ns = 0, bp_ns = 0;
    double l1i_n = 0, l1d_n = 0, bp_n = 0;
    std::uint64_t sink = 0;
    std::vector<MicroOp> ops;
    std::vector<Addr> fetch, data;
    std::vector<std::pair<Addr, bool>> branches;
    for (size_t b = 0; b < suite.size(); ++b) {
        const auto n = static_cast<size_t>(leafInstrs(suite[b]));
        ops.resize(n);
        {
            Span g("workload.gen");
            SyntheticWorkload gen(suite[b]);
            constexpr size_t kBatch = 4096;
            for (size_t i = 0; i < n; i += kBatch)
                gen.nextBatch(ops.data() + i,
                              static_cast<int>(std::min(kBatch, n - i)));
            gen_ns[b] = static_cast<double>(g.stop());
        }
        ops_total += static_cast<double>(n);

        fetch.clear();
        data.clear();
        branches.clear();
        Addr last_line = ~Addr{0};
        for (const MicroOp &op : ops) {
            Addr line = op.pc >> 6;
            if (line != last_line)
                fetch.push_back(op.pc);
            last_line = line;
            if (isMemOp(op.cls))
                data.push_back(op.mem_addr);
            if (op.cls == OpClass::Branch)
                branches.emplace_back(op.pc, op.taken);
        }

        {
            AccountingCache l1i("l1i", ic.org.size_bytes, ic.org.assoc,
                                ic.org.line_bytes);
            l1i.setPartition(ic.org.assoc, false);
            Span s("cache.l1i.replay");
            for (Addr a : fetch)
                sink += static_cast<std::uint64_t>(l1i.access(a).where);
            l1i_ns += static_cast<double>(s.stop());
            l1i_n += static_cast<double>(fetch.size());
        }
        {
            AccountingCache l1d("l1d", dc.l1_adapt.size_bytes,
                                dc.l1_adapt.assoc, dc.l1_adapt.line_bytes);
            l1d.setPartition(dc.l1_adapt.assoc, false);
            Span s("cache.l1d.replay");
            for (Addr a : data)
                sink += static_cast<std::uint64_t>(l1d.access(a).where);
            l1d_ns += static_cast<double>(s.stop());
            l1d_n += static_cast<double>(data.size());
        }
        {
            HybridPredictor bp(ic.predictor);
            Span s("predictor.replay");
            for (const auto &[pc, taken] : branches)
                sink += bp.update(pc, bp.predict(pc), taken);
            bp_ns += static_cast<double>(s.stop());
            bp_n += static_cast<double>(branches.size());
        }
    }
    double gen_total = 0;
    for (double g : gen_ns)
        gen_total += g;
    out["workload.gen_ns_per_op"] = {gen_total / ops_total, "ns/op"};
    out["cache.l1i_access_ns"] = {l1i_ns / l1i_n, "ns/access"};
    out["cache.l1d_access_ns"] = {l1d_ns / l1d_n, "ns/access"};
    out["predictor.ns_per_branch"] = {bp_ns / bp_n, "ns/branch"};
    keep(sink);
    return gen_ns;
}

/** timing layer: MachineConfig construction over the 256 points. */
void
timingProbe(Metrics &out)
{
    std::vector<AdaptiveConfig> configs = allAdaptiveConfigs();
    constexpr int kReps = 40;
    Span s("timing.machine_config");
    for (int r = 0; r < kReps; ++r) {
        for (const AdaptiveConfig &c : configs)
            keep(MachineConfig::mcdProgram(c));
    }
    auto ns = static_cast<double>(s.stop());
    out["timing.machine_config_us"] = {
        ns / 1000.0 / static_cast<double>(kReps * configs.size()), "us"};
}

/** obs layer: one single_core leaf with the program's own tracer
 * armed vs disarmed (results must be bit-identical). */
void
obsProbe(const Inputs &in, const std::string &scratch, Checker &ck,
         Metrics &out)
{
    setThreads(1, 1);
    const MachineConfig mc = MachineConfig::mcdPhaseAdaptive();
    const WorkloadParams &wl = in.sharing_base;
    std::vector<double> on, off;
    obs::Tracer &tr = obs::Tracer::instance();
    for (int rep = 0; rep < 3; ++rep) {
        for (int armed = 0; armed < 2; ++armed) {
            if (armed && !tr.configure(scratch + "/program_trace.json"))
                continue;
            Span s(armed ? "obs.leaf.armed" : "obs.leaf.disarmed");
            RunStats st = simulate(mc, wl);
            (armed ? on : off).push_back(static_cast<double>(s.stop()));
            ck.check("obs/gzip/phase", hashRun(st));
            if (armed)
                tr.disable();
        }
    }
    out["obs.trace_on_off_ratio"] = {
        on.empty() ? 0.0 : median(on) / median(off), "ratio"};
}

// ----------------------------------------------------------------------
// Command line and the run itself.
// ----------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string scratch;
    std::string pins;
    std::string trace_out;
    std::string rev = "unknown";
    std::string write_pins;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "galsbench: %s\nusage: galsbench --workload "
                 "single_core|chip|study|store_warm --seed N --seconds S "
                 "--trace 0|1 --scratch DIR --pins FILE [--trace-out FILE] "
                 "[--rev TEXT] [--write-pins FILE]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), &end, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), &end);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--scratch")
            a.scratch = v;
        else if (k == "--pins")
            a.pins = v;
        else if (k == "--trace-out")
            a.trace_out = v;
        else if (k == "--rev")
            a.rev = v;
        else if (k == "--write-pins")
            a.write_pins = v;
        else
            usage(("unknown option " + k).c_str());
        if (end != nullptr && *end != '\0')
            usage(("bad number for " + k).c_str());
    }
    if (a.scratch.empty())
        usage("--scratch is required");
    if (a.write_pins.empty() && a.pins.empty())
        usage("--pins is required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t c = line.find(':');
            if (c != std::string::npos)
                return line.substr(line.find_first_not_of(' ', c + 1));
        }
    }
    return "unknown";
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Args &a, unsigned np)
{
    if (name == "single_core")
        return std::make_unique<SingleCore>(a.seed, np);
    if (name == "chip")
        return std::make_unique<ChipLoad>(a.seed, np);
    if (name == "study")
        return std::make_unique<StudyLoad>(a.seed, np);
    if (name == "store_warm")
        return std::make_unique<StoreWarm>(a.seed, np, a.scratch);
    return nullptr;
}

/** Median set-up seconds over several set-ups. */
double
timedSetup(Workload &w, Checker &ck, int reps)
{
    std::vector<double> s;
    for (int i = 0; i < reps; ++i) {
        Span sp("setup");
        w.setup(ck);
        s.push_back(static_cast<double>(sp.stop()) * 1e-9);
    }
    return median(s);
}

void
printMetric(std::string &json, const std::string &name, double v,
            const char *unit)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    std::printf("  %-34s %16.6g %s\n", name.c_str(), v, unit);
    json += (json.empty() ? "" : ", ");
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            unit + "\"}";
}

/** Generate the seed-0 pins: one pass of every workload. */
int
writePins(const Args &a, unsigned np)
{
    if (a.seed != 0)
        usage("--write-pins needs --seed 0");
    Checker ck(0, {}, true);
    for (const char *name : {"single_core", "chip", "study", "store_warm"}) {
        std::unique_ptr<Workload> w = makeWorkload(name, a, np);
        w->setup(ck);
        w->timedPass(ck);
    }
    {
        SingleCore sc(0, np);
        sc.setup(ck);
        Metrics ignored;
        obsProbe(sc.inputs(), a.scratch, ck, ignored);
    }
    if (ck.failed() != 0) {
        std::fprintf(stderr, "galsbench: repeats disagree; pins not written\n");
        return 1;
    }
    std::ofstream f(a.write_pins);
    f << "# galsbench pins: FNV-1a of each leaf's value-exact result at "
         "seed 0.\n# Regenerate only for a change that is meant to alter "
         "simulated results.\n";
    for (const auto &[id, h] : ck.seen()) {
        if (id.rfind("store_point/", 0) != 0) // per-point rows: unpinned
            f << id << ' ' << hex(h) << '\n';
    }
    std::printf("wrote %zu pins to %s\n", ck.seen().size(),
                a.write_pins.c_str());
    return 0;
}

int
run(const Args &a)
{
    const unsigned np = nproc();
    for (const char *v : kScrubbedEnv)
        unsetenv(v);
    setThreads(1, 1);
    fs::create_directories(a.scratch);
    if (!a.write_pins.empty())
        return writePins(a, np);

    std::unique_ptr<Workload> w = makeWorkload(a.workload, a, np);
    if (!w)
        usage(("unknown workload '" + a.workload + "'").c_str());
    Checker ck(a.seed, loadPins(a.pins), false);
    g_spans.on = a.trace;
    g_spans.run_id = static_cast<int>(a.seed & 0x7fffffff);

    std::printf("# galsbench host {\"cpu\": \"%s\", \"nproc\": %u, "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"flags\": \"%s\", \"revision\": \"%s\"}\n",
                jsonEscape(cpuModel()).c_str(), np, GALSBENCH_COMPILER,
                GALSBENCH_BUILD_TYPE, jsonEscape(GALSBENCH_FLAGS).c_str(),
                jsonEscape(a.rev).c_str());

    const double setup_s = timedSetup(*w, ck, w->setup_reps);
    std::string json;
    std::vector<PassCost> passes;

    if (!a.trace) {
        const double t0 = wallS();
        do {
            passes.push_back(w->timedPass(ck));
        } while (passes.size() < w->min_passes ||
                 wallS() - t0 + passes.back().wall_s <= a.seconds);
    } else {
        // The traced run: the workload's own pass untraced and traced
        // (their ratio is the spans' overhead), then every layer
        // probe, each fed from the workloads' own inputs.
        Metrics m;
        std::vector<double> ratio;
        double spent = 0;
        do {
            g_spans.on = false;
            PassCost u = w->timedPass(ck);
            g_spans.on = true;
            PassCost t = w->tracedPass(ck, m);
            passes.push_back(u);
            ratio.push_back(t.wall_s / u.wall_s);
            spent += u.wall_s + t.wall_s;
        } while (ratio.size() < 3 && spent < 0.25 * a.seconds);
        m["bench.trace_overhead"] = {median(ratio), "ratio"};
        // The probes run with the global store off, as the workloads
        // other than store_warm do; the store probe opens its own.
        configureResultStore("");

        // single_core's traced pass is the core probe itself.
        auto *own = dynamic_cast<SingleCore *>(w.get());
        SingleCore other(a.seed, np);
        if (!own) {
            other.setup(ck);
            other.corePass(ck, m);
        }
        const SingleCore &sc = own ? *own : other;
        std::vector<double> gen_ns = streamProbe(sc.inputs().suite, m);
        const std::vector<double> &run_ns = sc.programRunNs();
        double g = 0, r = 0;
        for (size_t b = 0; b < gen_ns.size(); ++b) {
            g += gen_ns[b];
            r += run_ns[b];
        }
        m["workload.gen_share"] = {g / r, "ratio"};
        timingProbe(m);
        obsProbe(sc.inputs(), a.scratch, ck, m);
        {
            ChipLoad cl(a.seed, np);
            cl.setup(ck);
            cl.cmpProbe(ck, m);
        }
        if (!dynamic_cast<StudyLoad *>(w.get())) {
            StudyLoad st(a.seed, np);
            st.setup(ck);
            st.rowProbe(ck, m);
        }
        if (auto *sw = dynamic_cast<StoreWarm *>(w.get())) {
            sw->storeProbe(ck, m);
        } else {
            StoreWarm sw2(a.seed, np, a.scratch);
            sw2.storeProbe(ck, m);
        }
        for (const auto &[name, v] : m)
            printMetric(json, name, v.value, v.unit);
        if (!a.trace_out.empty())
            g_spans.write(a.trace_out);
    }

    double instrs = static_cast<double>(w->instrsPerPass());
    double points = static_cast<double>(w->pointsPerPass());
    std::printf("# galsbench workload {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"sim_instrs_per_pass\": %.0f, \"leaves_per_pass\": %.0f, "
                "\"passes\": %zu, \"sweep_threads\": %u, \"chip_threads\": %u, "
                "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 "}\n",
                w->name(), a.seed, instrs, points, passes.size(),
                w->sweep_threads, w->chip_threads, ck.attempted(), ck.failed());
    std::printf("# pass wall s:");
    for (const PassCost &p : passes)
        std::printf(" %.4f", p.wall_s);
    std::printf("\n");
    for (const std::string &f : ck.failures())
        std::printf("# failed: %s\n", f.c_str());

    if (!a.trace) {
        const PassCost rep = w->representative(passes);
        printMetric(json, "setup_s", setup_s, "s");
        printMetric(json, "sim_instr_per_s", instrs / rep.wall_s, "instr/s");
        printMetric(json, "sim_instr_per_cpu_s", instrs / rep.cpu_s, "instr/s");
        printMetric(json, "points_per_s", points / rep.wall_s, "points/s");
        printMetric(json, "peak_rss_mib", peakRssMiB(), "MiB");
        std::printf("  %-34s %16.6g ratio\n", "failed_ratio",
                    static_cast<double>(ck.failed()) /
                        static_cast<double>(ck.attempted()));
    }

    bool correct = ck.failed() == 0 && ck.attempted() > 0;
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
                correct ? "true" : "false", ck.attempted(), ck.failed(),
                json.c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "galsbench: %s\n", e.what());
        return 1;
    }
}
