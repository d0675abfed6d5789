/**
 * @file
 * Index-parallel helper for the sweep layer.
 *
 * Simulations are independent and deterministic, so running them on a
 * few host threads changes nothing but wall-clock time. The caller
 * runs with up to `n - 1` helper threads; every index is claimed from
 * one atomic counter, so uneven run times balance themselves.
 *
 * The helpers start on first need and then sleep between calls,
 * because not every call is long. A study row or a cold sweep runs
 * for seconds, but a sweep served warm from the result store is only
 * record reads: 64 points take about 0.6 ms of CPU. A
 * thread start and join costs about 30 us of CPU on a 4-vCPU VM host,
 * so starting three threads per call cost such a sweep 17% of its
 * throughput; a wake-up on a condition variable costs a few us.
 *
 * GALS_THREADS caps the thread count (unset = hardware concurrency);
 * it is re-read on every call so tests can toggle it with setenv.
 * Nested parallelFor calls (a sweep inside a per-benchmark study task)
 * run inline on the calling sweep thread, which bounds the fan-out
 * at the cap. The helpers serve one top-level call at a time; a
 * second, concurrent top-level call runs inline on its own thread.
 */

#ifndef GALS_SIM_PARALLEL_HH
#define GALS_SIM_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>

#include "common/logging.hh"
#include "common/parse.hh"

namespace gals
{

namespace detail
{

/** True while this thread runs parallelFor work (nested calls run
 * inline). */
inline bool &
onSweepThread()
{
    thread_local bool flag = false;
    return flag;
}

/**
 * The helper threads of parallelFor. They start on first need, sleep
 * between calls and live until the process exits; the object is never
 * destroyed, so exit joins nothing. One call owns them at a time
 * (`owner`).
 */
struct SweepHelpers
{
    std::mutex owner;
    std::mutex m;
    std::condition_variable posted; //!< a job wants helpers.
    std::condition_variable left;   //!< a helper finished the job.
    const std::function<void()> *job = nullptr;
    unsigned wanted = 0;  //!< helpers the job may still take.
    unsigned inside = 0;  //!< helpers running the job.
    unsigned started = 0;

    static SweepHelpers &
    get()
    {
        static SweepHelpers *h = new SweepHelpers;
        return *h;
    }

    /** Run `work` on the caller and on up to `helpers` helpers; return
     * once no helper runs it any more. `work` must not throw. */
    void
    run(const std::function<void()> &work, unsigned helpers)
    {
        {
            std::lock_guard<std::mutex> lock(m);
            for (; started < helpers; ++started)
                std::thread([this] { serve(); }).detach();
            job = &work;
            wanted = helpers;
        }
        posted.notify_all();
        // The caller works as a sweep thread too, then is unmarked
        // again, or every later sweep on it would run serially.
        onSweepThread() = true;
        work();
        onSweepThread() = false;
        // The caller's work returns once every index is claimed; a
        // helper that has not joined by now has nothing left to do.
        std::unique_lock<std::mutex> lock(m);
        wanted = 0;
        left.wait(lock, [&] { return inside == 0; });
        job = nullptr;
    }

    void
    serve()
    {
        onSweepThread() = true;
        std::unique_lock<std::mutex> lock(m);
        for (;;) {
            posted.wait(lock, [&] { return wanted > 0; });
            --wanted;
            ++inside;
            const std::function<void()> *work = job;
            lock.unlock();
            (*work)();
            lock.lock();
            if (--inside == 0)
                left.notify_one();
        }
    }
};

} // namespace detail

/**
 * Strictly parse a thread-count environment variable. The entire
 * string must be a positive decimal integer (parseDecimal); garbage,
 * zero and negative input fall back to `fallback` and overlarge input
 * is clamped to `ceiling`, each with a logged warning, instead of
 * silently misconfiguring the sweep threads — an unchecked strtol
 * would read "8x" as 8 and "-3" as "unset".
 */
inline unsigned
threadCountFromEnv(const char *name, const char *text,
                   unsigned fallback, unsigned ceiling)
{
    std::optional<std::int64_t> v = parseDecimal(text, 1, INT64_MAX);
    if (!v) {
        warn("%s=\"%s\" is not a positive integer; using %u", name,
             text, fallback);
        return fallback;
    }
    if (*v > ceiling) {
        warn("%s=%s exceeds the supported maximum of %u; clamping",
             name, text, ceiling);
        return ceiling;
    }
    return static_cast<unsigned>(*v);
}

/** Thread cap: GALS_THREADS when set (validated, clamped to the
 * hardware thread count), else hardware threads. */
inline unsigned
sweepThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    if (const char *env = std::getenv("GALS_THREADS")) {
        // Sweep work items are independent, so threads beyond the
        // hardware's only add scheduling overhead: clamp there.
        return threadCountFromEnv("GALS_THREADS", env, hw, hw);
    }
    return hw;
}

/**
 * Invoke fn(i) for every i in [0, count) across up to `max_threads`
 * host threads (0 = GALS_THREADS / hardware concurrency). fn must be
 * thread-safe with respect to distinct indices. Results must not
 * depend on execution order; every simulation here is deterministic
 * per index, so thread count never changes any output. If fn throws,
 * later indices may be skipped, and one of the exceptions is rethrown
 * once every thread has finished with the call.
 */
template <typename Fn>
void
parallelFor(size_t count, Fn fn, unsigned max_threads = 0)
{
    if (count == 0)
        return;
    unsigned limit = sweepThreads();
    unsigned n = max_threads == 0 ? limit
                                  : std::min(max_threads, limit);
    n = static_cast<unsigned>(std::min<size_t>(n, count));

    detail::SweepHelpers &helpers = detail::SweepHelpers::get();
    std::unique_lock<std::mutex> own;
    if (n > 1 && !detail::onSweepThread())
        own = std::unique_lock<std::mutex>(helpers.owner,
                                           std::try_to_lock);
    if (!own.owns_lock()) {
        for (size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    // Each thread claims one index at a time, so long and short runs
    // balance without chunk sizing. An exception stops further claims
    // and is rethrown to the caller.
    std::atomic<size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    const std::function<void()> work = [&] {
        try {
            for (size_t i; (i = next.fetch_add(1)) < count;)
                fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!error)
                error = std::current_exception();
            next = count;
        }
    };
    helpers.run(work, n - 1);
    if (error)
        std::rethrow_exception(error);
}

/**
 * Invoke fn(i) in parallel for every i in [0, count) owned by
 * `shard` (round-robin partition, sim/shard.hh): the sweep threads
 * cover one host's cores, the shard covers this process's slice of
 * a multi-process sweep. `shard.count == 1` degenerates to
 * parallelFor over every index.
 */
template <typename Shard, typename Fn>
void
parallelForShard(size_t count, const Shard &shard, Fn fn,
                 unsigned max_threads = 0)
{
    if (count == 0)
        return;
    // Owned indices are shard.index, shard.index + count_, ...:
    // enumerate them densely so the index claims stay balanced.
    size_t stride = static_cast<size_t>(shard.count);
    size_t first = static_cast<size_t>(shard.index);
    size_t owned =
        first < count ? (count - first + stride - 1) / stride : 0;
    parallelFor(
        owned, [&](size_t k) { fn(first + k * stride); },
        max_threads);
}

} // namespace gals

#endif // GALS_SIM_PARALLEL_HH
