#include "sim/result_store.hh"

#include <bit>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string_view>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "sim/simulation.hh"

namespace fs = std::filesystem;

namespace gals
{

namespace
{

// ----------------------------------------------------------------------
// Hashing. FNV-1a over the key text, run as two independently seeded
// 64-bit streams for a 128-bit file name: cheap, dependency-free,
// and collisions are harmless anyway — every record carries the full
// key text and lookup compares it, so a colliding record is rejected
// as foreign, never trusted.
// ----------------------------------------------------------------------
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr std::uint64_t kFnvBasisA = 0xcbf29ce484222325ULL;
/** Second stream: the standard basis xor-folded with a salt so the
 * two streams never agree on nontrivial input. */
constexpr std::uint64_t kFnvBasisB = 0x9ae16a3b2f90404fULL;

std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

constexpr std::uint32_t kMagic = 0x31535247; // "GRS1" little-endian.

/** Largest file lookup reads: far above any real record (a 16-core
 * chip row is tens of KiB), so anything bigger is junk to reject, not
 * a size to allocate. */
constexpr off_t kMaxRecordBytes = off_t{64} << 20;

constexpr char kHexDigits[] = "0123456789abcdef";

/** `v` as 16 lower-case hex digits (the "%016llx" of the record name). */
void
appendHex64(std::string &out, std::uint64_t v)
{
    char buf[16];
    for (int i = 15; i >= 0; --i, v >>= 4)
        buf[i] = kHexDigits[v & 0xf];
    out.append(buf, sizeof(buf));
}

// ----------------------------------------------------------------------
// Byte stream helpers (explicit little-endian, bounds-checked reads).
// ----------------------------------------------------------------------
void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putString(std::string &out, const std::string &s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out += s;
}

/** Bounds-checked sequential reader; every get returns false once
 * the stream is exhausted or malformed. */
struct ByteReader
{
    std::string_view buf;
    std::size_t off = 0;

    bool
    getU32(std::uint32_t &v)
    {
        if (off + 4 > buf.size())
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i) {
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(buf[off + static_cast<std::size_t>(i)]))
                 << (8 * i);
        }
        off += 4;
        return true;
    }

    bool
    getU64(std::uint64_t &v)
    {
        if (off + 8 > buf.size())
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(buf[off + static_cast<std::size_t>(i)]))
                 << (8 * i);
        }
        off += 8;
        return true;
    }

    /** A length-prefixed string, viewed in place. */
    bool
    getView(std::string_view &s)
    {
        std::uint32_t n = 0;
        if (!getU32(n) || off + n > buf.size())
            return false;
        s = buf.substr(off, n);
        off += n;
        return true;
    }

    bool
    getString(std::string &s)
    {
        std::string_view v;
        if (!getView(v))
            return false;
        s.assign(v);
        return true;
    }

    bool done() const { return off == buf.size(); }
};

// ----------------------------------------------------------------------
// Key text rendering. Stable, exact and unambiguous: integers in
// decimal, doubles in %a hexfloat, strings length-prefixed. The text
// is stored verbatim in each record, so it doubles as the collision
// check and as a human-readable record of what the row is.
//
// The key is rebuilt on every probe, hit or miss, so its rendering is
// paid once per point of a warm sweep: a key is ~30 fields per machine
// plus ~30 per workload phase. Fields render into a stack buffer,
// never through the printf machinery: integers with std::to_chars,
// doubles by hand from their bits in exactly glibc's %a form, the
// form every stored key was written in. std::to_chars' hex form is
// not used for doubles because its subnormals differ between
// libstdc++ releases ("1p-1074" in one, "0.0000000000001p-1022" in
// another), and a key must not depend on the library it links.
// ----------------------------------------------------------------------
/** Writes `v` at `p` as glibc's printf("%a") does and returns the
 * end: [-]0x1[.hex]p±exp for normals, [-]0x0.hexp-1022 for
 * subnormals, [-]0x0p+0, [-]inf, [-]nan. Fraction digits stop at the
 * last nonzero one. At most 24 chars ("-0x1.fffffffffffffp+1023"). */
char *
renderHexfloat(char *p, double v)
{
    constexpr std::uint64_t kFracMask = (std::uint64_t{1} << 52) - 1;
    const auto bits = std::bit_cast<std::uint64_t>(v);
    const int biased = static_cast<int>((bits >> 52) & 0x7ff);
    std::uint64_t frac = bits & kFracMask;
    if (bits >> 63)
        *p++ = '-';
    if (biased == 0x7ff) {
        std::memcpy(p, frac != 0 ? "nan" : "inf", 3);
        return p + 3;
    }
    const int exp = biased != 0 ? biased - 1023 : frac != 0 ? -1022 : 0;
    *p++ = '0';
    *p++ = 'x';
    *p++ = biased != 0 ? '1' : '0';
    if (frac != 0) {
        *p++ = '.';
        for (; frac != 0; frac = (frac << 4) & kFracMask)
            *p++ = kHexDigits[frac >> 48];
    }
    *p++ = 'p';
    *p++ = exp < 0 ? '-' : '+';
    return std::to_chars(p, p + 4, exp < 0 ? -exp : exp).ptr;
}

/** Appends "name=value;" in one piece: `render` writes the value at
 * the pointer it is given and returns the end. Names are short
 * literals and values at most 24 chars, so 64 bytes always fit. */
template <typename Render>
void
keyField(std::string &out, const char *name, Render render)
{
    char buf[64];
    const std::size_t n = std::strlen(name);
    std::memcpy(buf, name, n);
    buf[n] = '=';
    char *end = render(buf + n + 1);
    *end++ = ';';
    out.append(buf, end);
}

void
keyInt(std::string &out, const char *name, long long v)
{
    keyField(out, name,
             [v](char *p) { return std::to_chars(p, p + 24, v).ptr; });
}

void
keyU64(std::string &out, const char *name, std::uint64_t v)
{
    keyField(out, name,
             [v](char *p) { return std::to_chars(p, p + 24, v).ptr; });
}

void
keyDouble(std::string &out, const char *name, double v)
{
    keyField(out, name, [v](char *p) { return renderHexfloat(p, v); });
}

void
keyString(std::string &out, const char *name, const std::string &v)
{
    char buf[24];
    char *end = std::to_chars(buf, buf + sizeof(buf), v.size()).ptr;
    out += name;
    out += '=';
    out.append(buf, end);
    out += ':';
    out += v;
    out += ';';
}

void
appendMachineKey(std::string &out, const MachineConfig &m)
{
    out += "machine{";
    keyInt(out, "mode", static_cast<int>(m.mode));
    keyInt(out, "phase", m.phase_adaptive ? 1 : 0);
    keyInt(out, "ic", m.adaptive.icache);
    keyInt(out, "dc", m.adaptive.dcache);
    keyInt(out, "qi", m.adaptive.iq_int);
    keyInt(out, "qf", m.adaptive.iq_fp);
    keyInt(out, "sync_ic", m.sync_icache_opt);
    keyInt(out, "fq", m.fetch_queue_entries);
    keyInt(out, "fw", m.fetch_width);
    keyInt(out, "dw", m.decode_width);
    keyInt(out, "iw", m.issue_width);
    keyInt(out, "rw", m.retire_width);
    keyInt(out, "rob", m.rob_entries);
    keyInt(out, "pint", m.phys_int_regs);
    keyInt(out, "pfp", m.phys_fp_regs);
    keyInt(out, "lsq", m.lsq_entries);
    keyInt(out, "sb", m.store_buffer_entries);
    keyInt(out, "ialu", m.int_alus);
    keyInt(out, "falu", m.fp_alus);
    keyInt(out, "mp", m.mem_ports);
    keyInt(out, "mshr", m.mshrs);
    keyInt(out, "dfifo", m.dispatch_fifo_entries);
    keyDouble(out, "jit", m.jitter_sigma_ps);
    keyU64(out, "seed", m.seed);
    keyDouble(out, "ff", m.force_freq_ghz);
    keyU64(out, "ival", m.cache_interval_instrs);
    keyDouble(out, "pll_m", m.pll.mean_us);
    keyDouble(out, "pll_s", m.pll.sigma_us);
    keyDouble(out, "pll_lo", m.pll.min_us);
    keyDouble(out, "pll_hi", m.pll.max_us);
    keyDouble(out, "qhys", m.queue_hysteresis);
    keyDouble(out, "chys", m.cache_hysteresis);
    keyDouble(out, "ihys", m.icache_hysteresis);
    keyInt(out, "qper", m.queue_persistence);
    keyInt(out, "cper", m.cache_persistence);
    out += '}';
}

void
appendWorkloadKey(std::string &out, const WorkloadParams &wl)
{
    out += "workload{";
    keyString(out, "name", wl.name);
    keyString(out, "suite", wl.suite);
    keyU64(out, "sim", wl.sim_instrs);
    keyU64(out, "warm", wl.warmup_instrs);
    keyU64(out, "seed", wl.seed);
    keyU64(out, "shared", wl.shared_bytes);
    keyU64(out, "off", wl.addr_offset);
    for (const PhaseParams &p : wl.phases) {
        out += "phase{";
        keyU64(out, "len", p.length_instrs);
        keyInt(out, "blk", p.block_len);
        keyU64(out, "hot", p.code_hot_bytes);
        keyU64(out, "tot", p.code_total_bytes);
        keyDouble(out, "exf", p.excursion_frac);
        keyInt(out, "exl", p.excursion_len);
        keyInt(out, "llm", p.loop_lines_max);
        keyInt(out, "lim", p.loop_iters_max);
        keyInt(out, "nch", p.num_chains);
        keyInt(out, "seg", p.chain_segment_len);
        keyDouble(out, "xch", p.cross_chain_frac);
        keyDouble(out, "ld", p.load_frac);
        keyDouble(out, "st", p.store_frac);
        keyDouble(out, "ldc", p.load_chain_frac);
        keyDouble(out, "brd", p.branch_dep_frac);
        keyDouble(out, "fp", p.fp_frac);
        keyDouble(out, "mul", p.mul_frac);
        keyDouble(out, "div", p.div_frac);
        keyU64(out, "strb", p.stream_bytes);
        keyU64(out, "strs", p.stream_stride_bytes);
        keyU64(out, "rndb", p.rand_bytes);
        keyDouble(out, "rnd", p.rand_frac);
        keyDouble(out, "shf", p.shared_frac);
        keyDouble(out, "lsf", p.loop_site_frac);
        keyInt(out, "bpl", p.branch_pattern_len);
        keyDouble(out, "bn", p.branch_noise);
        out += '}';
    }
    out += '}';
}

/** Unique-enough temp suffix: pid + a process-wide counter, so
 * concurrent writers (threads or processes) never share a temp file. */
std::string
tempSuffix()
{
    static std::atomic<std::uint64_t> seq{0};
    return csprintf(".tmp.%d.%llu", static_cast<int>(::getpid()),
                    static_cast<unsigned long long>(
                        seq.fetch_add(1, std::memory_order_relaxed)));
}

} // namespace

// ----------------------------------------------------------------------
// Keys.
// ----------------------------------------------------------------------
std::string
resultKey(const MachineConfig &machine, const WorkloadParams &workload)
{
    std::string key = "grs-key-v1:single;";
    key.reserve(1536);
    appendMachineKey(key, machine);
    appendWorkloadKey(key, workload);
    return key;
}

std::string
resultKey(const ChipConfig &chip,
          const std::vector<WorkloadParams> &workloads)
{
    std::string key = "grs-key-v1:chip;";
    key.reserve(768 + 1024 * workloads.size());
    appendMachineKey(key, chip.machine);
    key += "chip{";
    keyInt(key, "cores", chip.cores);
    keyInt(key, "banks", chip.l2_banks);
    keyInt(key, "bmshr", chip.l2_bank_mshrs);
    keyU64(key, "occ", chip.l2_bank_occupancy_ps);
    keyU64(key, "coh", chip.coh_delay_ps);
    key += '}';
    for (const WorkloadParams &wl : workloads)
        appendWorkloadKey(key, wl);
    return key;
}

// ----------------------------------------------------------------------
// Payloads.
// ----------------------------------------------------------------------
std::string
serializeRunStats(const RunStats &stats)
{
    std::string out;
    putString(out, stats.benchmark);
    putString(out, stats.config);
    putU64(out, stats.committed);
    putU64(out, stats.time_ps);
    putU64(out, stats.l1i_accesses);
    putU64(out, stats.l1i_misses);
    putU64(out, stats.l1d_accesses);
    putU64(out, stats.l1d_misses);
    putU64(out, stats.l2_accesses);
    putU64(out, stats.l2_misses);
    putU64(out, stats.l1i_b_hits);
    putU64(out, stats.l1d_b_hits);
    putU64(out, stats.l2_b_hits);
    putU64(out, stats.branches);
    putU64(out, stats.mispredicts);
    putU64(out, stats.flushes);
    putU64(out, stats.relocks);
    for (const auto *res :
         {&stats.icache_residency, &stats.dcache_residency,
          &stats.iq_int_residency, &stats.iq_fp_residency}) {
        for (std::uint64_t v : *res)
            putU64(out, v);
    }
    const std::vector<ReconfigEvent> &events = stats.trace.events();
    putU32(out, static_cast<std::uint32_t>(events.size()));
    for (const ReconfigEvent &e : events) {
        putU64(out, e.committed_instrs);
        putU32(out, static_cast<std::uint32_t>(e.structure));
        putU32(out, static_cast<std::uint32_t>(e.from_index));
        putU32(out, static_cast<std::uint32_t>(e.to_index));
    }
    return out;
}

namespace
{

bool
readRunStats(ByteReader &r, RunStats &out)
{
    out = RunStats{};
    if (!r.getString(out.benchmark) || !r.getString(out.config) ||
        !r.getU64(out.committed) || !r.getU64(out.time_ps) ||
        !r.getU64(out.l1i_accesses) || !r.getU64(out.l1i_misses) ||
        !r.getU64(out.l1d_accesses) || !r.getU64(out.l1d_misses) ||
        !r.getU64(out.l2_accesses) || !r.getU64(out.l2_misses) ||
        !r.getU64(out.l1i_b_hits) || !r.getU64(out.l1d_b_hits) ||
        !r.getU64(out.l2_b_hits) || !r.getU64(out.branches) ||
        !r.getU64(out.mispredicts) || !r.getU64(out.flushes) ||
        !r.getU64(out.relocks)) {
        return false;
    }
    for (auto *res :
         {&out.icache_residency, &out.dcache_residency,
          &out.iq_int_residency, &out.iq_fp_residency}) {
        for (std::uint64_t &v : *res) {
            if (!r.getU64(v))
                return false;
        }
    }
    std::uint32_t n = 0;
    if (!r.getU32(n))
        return false;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint64_t committed = 0;
        std::uint32_t structure = 0, from = 0, to = 0;
        if (!r.getU64(committed) || !r.getU32(structure) ||
            !r.getU32(from) || !r.getU32(to) || structure > 3) {
            return false;
        }
        out.trace.record(committed, static_cast<Structure>(structure),
                         static_cast<int>(from),
                         static_cast<int>(to));
    }
    return true;
}

} // namespace

bool
deserializeRunStats(const std::string &bytes, RunStats &out)
{
    ByteReader r{bytes};
    return readRunStats(r, out) && r.done();
}

std::string
serializeChipRunStats(const ChipRunStats &stats)
{
    std::string out;
    putU32(out, static_cast<std::uint32_t>(stats.cores.size()));
    for (const RunStats &s : stats.cores)
        putString(out, serializeRunStats(s));
    putU64(out, stats.total_committed);
    putU64(out, stats.makespan_ps);
    putU64(out, stats.l2_accesses);
    putU64(out, stats.l2_misses);
    putU64(out, stats.bank_conflicts);
    putU64(out, stats.bank_mshr_waits);
    putU64(out, stats.fill_merges);
    putU64(out, stats.invalidations);
    putU64(out, stats.ownership_transfers);
    return out;
}

bool
deserializeChipRunStats(const std::string &bytes, ChipRunStats &out)
{
    out = ChipRunStats{};
    ByteReader r{bytes};
    std::uint32_t cores = 0;
    if (!r.getU32(cores))
        return false;
    out.cores.resize(cores);
    for (std::uint32_t c = 0; c < cores; ++c) {
        std::string inner;
        if (!r.getString(inner) ||
            !deserializeRunStats(inner, out.cores[c])) {
            return false;
        }
    }
    return r.getU64(out.total_committed) &&
           r.getU64(out.makespan_ps) && r.getU64(out.l2_accesses) &&
           r.getU64(out.l2_misses) && r.getU64(out.bank_conflicts) &&
           r.getU64(out.bank_mshr_waits) &&
           r.getU64(out.fill_merges) && r.getU64(out.invalidations) &&
           r.getU64(out.ownership_transfers) && r.done();
}

// ----------------------------------------------------------------------
// Store.
// ----------------------------------------------------------------------
bool
ResultStore::open(const std::string &dir,
                  const std::string &version_tag)
{
    close();
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec || !fs::is_directory(dir)) {
        warn("result cache directory \"%s\" cannot be created (%s); "
             "result cache disabled",
             dir.c_str(), ec ? ec.message().c_str() : "not a directory");
        return false;
    }
    // Probe writability now, so an unwritable directory costs one
    // warning instead of one per record.
    std::string probe =
        (fs::path(dir) / ("probe" + tempSuffix())).string();
    {
        std::ofstream out(probe, std::ios::binary);
        if (!out) {
            warn("result cache directory \"%s\" is not writable; "
                 "result cache disabled",
                 dir.c_str());
            return false;
        }
    }
    fs::remove(probe, ec);
    dir_ = fs::absolute(dir).string();
    tag_ = version_tag;
    return true;
}

void
ResultStore::close()
{
    dir_.clear();
    tag_ = kResultStoreVersion;
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    stores_.store(0, std::memory_order_relaxed);
    rejects_.store(0, std::memory_order_relaxed);
    write_warned_.store(false, std::memory_order_relaxed);
}

std::string
ResultStore::recordPath(const std::string &key) const
{
    // Both FNV-1a streams in one pass: two independent multiply chains
    // per byte instead of two passes of one.
    std::uint64_t a = kFnvBasisA;
    std::uint64_t b = kFnvBasisB;
    for (unsigned char c : key) {
        a = (a ^ c) * kFnvPrime;
        b = (b ^ c) * kFnvPrime;
    }
    std::string path;
    path.reserve(dir_.size() + 37);
    path = dir_;
    if (!path.empty() && path.back() != '/')
        path += '/';
    appendHex64(path, a);
    appendHex64(path, b);
    path += ".grs";
    return path;
}

bool
ResultStore::lookup(const std::string &key, std::string &payload) const
{
    if (!enabled())
        return false;

    auto miss = [&] {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    };
    auto reject = [&] {
        rejects_.fetch_add(1, std::memory_order_relaxed);
        return miss();
    };

    // One open/fstat/read. O_NONBLOCK keeps a FIFO at the record path
    // from blocking the open; anything but a regular file of sane size
    // is a reject, never a size to allocate or a stream to wait on.
    const int fd = ::open(recordPath(key).c_str(),
                          O_RDONLY | O_CLOEXEC | O_NONBLOCK);
    if (fd < 0)
        return miss();
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        return miss();
    }
    if (!S_ISREG(st.st_mode) || st.st_size > kMaxRecordBytes) {
        ::close(fd);
        return reject();
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    auto buf = std::make_unique_for_overwrite<char[]>(size);
    std::size_t got = 0;
    while (got < size) {
        ssize_t n = ::read(fd, buf.get() + got, size - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    ::close(fd);
    if (got != size)
        return miss();

    // Validate everything in place; any failure is a reject
    // (recompute, never trust). The checksum covers every byte before
    // it, so a truncated or bit-flipped record cannot pass.
    const std::string_view bytes(buf.get(), size);
    if (bytes.size() < 8)
        return reject();
    std::uint64_t want = 0;
    ByteReader{bytes, bytes.size() - 8}.getU64(want);
    if (fnv1a(bytes.data(), bytes.size() - 8, kFnvBasisA) != want)
        return reject();

    ByteReader r{bytes};
    std::uint32_t magic = 0;
    std::string_view tag, stored_key, body;
    if (!r.getU32(magic) || magic != kMagic || !r.getView(tag) ||
        !r.getView(stored_key) || !r.getView(body) ||
        r.off + 8 != bytes.size()) {
        return reject();
    }
    if (tag != tag_ || stored_key != key)
        return reject(); // stale code version or hash collision.

    payload.assign(body);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
ResultStore::store(const std::string &key,
                   const std::string &payload) const
{
    if (!enabled())
        return;

    std::string bytes;
    putU32(bytes, kMagic);
    putString(bytes, tag_);
    putString(bytes, key);
    putString(bytes, payload);
    putU64(bytes, fnv1a(bytes.data(), bytes.size(), kFnvBasisA));

    // Atomic publish: write a private temp file, then rename() onto
    // the record name. Readers either see the old record or the new
    // complete one; racing writers publish identical bytes (the
    // payload is a deterministic function of the key), so last-wins
    // is harmless.
    std::string final_path = recordPath(key);
    std::string tmp_path = final_path + tempSuffix();
    bool ok = false;
    {
        std::ofstream out(tmp_path, std::ios::binary);
        if (out) {
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
            ok = out.good();
        }
    }
    std::error_code ec;
    if (ok) {
        fs::rename(tmp_path, final_path, ec);
        ok = !ec;
    }
    if (!ok) {
        fs::remove(tmp_path, ec);
        if (!write_warned_.exchange(true, std::memory_order_relaxed)) {
            warn("result cache write to \"%s\" failed; caching "
                 "continues best-effort",
                 dir_.c_str());
        }
        return;
    }
    stores_.fetch_add(1, std::memory_order_relaxed);
}

ResultStore::Counters
ResultStore::counters() const
{
    Counters c;
    c.hits = hits_.load(std::memory_order_relaxed);
    c.misses = misses_.load(std::memory_order_relaxed);
    c.stores = stores_.load(std::memory_order_relaxed);
    c.rejects = rejects_.load(std::memory_order_relaxed);
    return c;
}

void
ResultStore::publishMetrics() const
{
    Counters c = counters();
    obs::MetricsRegistry &m = obs::MetricsRegistry::instance();
    m.set("result_store.enabled", enabled() ? 1 : 0);
    m.set("result_store.hits", c.hits);
    m.set("result_store.misses", c.misses);
    m.set("result_store.stores", c.stores);
    m.set("result_store.rejects", c.rejects);
}

std::string
ResultStore::statsLine() const
{
    // The human-facing stderr line doubles as the fold point into
    // the machine-readable registry: every caller that reports the
    // store's telemetry keeps --metrics-out/GALS_METRICS current.
    publishMetrics();
    Counters c = counters();
    return csprintf("result-store: %llu hits, %llu misses "
                    "(%llu rejected records), %llu stored, dir %s",
                    static_cast<unsigned long long>(c.hits),
                    static_cast<unsigned long long>(c.misses),
                    static_cast<unsigned long long>(c.rejects),
                    static_cast<unsigned long long>(c.stores),
                    dir_.c_str());
}

// ----------------------------------------------------------------------
// Global store.
// ----------------------------------------------------------------------
namespace
{

ResultStore &
globalStore()
{
    static ResultStore store;
    return store;
}

/** One-time GALS_RESULT_CACHE pickup; configureResultStore overrides. */
std::once_flag env_once;

void
initFromEnv()
{
    std::call_once(env_once, [] {
        const char *env = std::getenv("GALS_RESULT_CACHE");
        if (env != nullptr && *env != '\0')
            globalStore().open(env);
    });
}

} // namespace

ResultStore &
resultStore()
{
    initFromEnv();
    return globalStore();
}

void
configureResultStore(const std::string &dir)
{
    initFromEnv(); // settle the env pickup so it cannot race us later.
    if (dir.empty())
        globalStore().close();
    else
        globalStore().open(dir);
}

// ----------------------------------------------------------------------
// Cached simulation wrappers.
// ----------------------------------------------------------------------
RunStats
cachedSimulate(const MachineConfig &machine,
               const WorkloadParams &workload)
{
    ResultStore &rs = resultStore();
    if (!rs.enabled())
        return simulate(machine, workload);

    std::string key = resultKey(machine, workload);
    std::string payload;
    RunStats out;
    if (rs.lookup(key, payload) && deserializeRunStats(payload, out))
        return out;

    out = simulate(machine, workload);
    rs.store(key, serializeRunStats(out));
    return out;
}

ChipRunStats
cachedChipRun(const ChipConfig &chip,
              const std::vector<WorkloadParams> &workloads)
{
    ResultStore &rs = resultStore();
    if (!rs.enabled()) {
        Chip c(chip, workloads);
        return c.run();
    }

    std::string key = resultKey(chip, workloads);
    std::string payload;
    ChipRunStats out;
    if (rs.lookup(key, payload) &&
        deserializeChipRunStats(payload, out)) {
        return out;
    }

    Chip c(chip, workloads);
    out = c.run();
    rs.store(key, serializeChipRunStats(out));
    return out;
}

} // namespace gals
