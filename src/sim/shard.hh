/**
 * @file
 * Deterministic sharding of sweeps across processes (and hosts).
 *
 * The in-process sweep threads (sim/parallel.hh) cap at one host's
 * hardware concurrency; design-space sweeps beyond that are split by
 * running the same binary N times with `--shard i/N` (or
 * GALS_SHARDS=i/N) and merging the per-shard JSON outputs. The
 * partition is a pure function of the work-item index (round-robin,
 * i.e. item k belongs to shard k mod N), so shards are disjoint,
 * cover the full sweep, and every shard's results are byte-identical
 * to the rows the unsharded run would have produced —
 * `scripts/sweep_shard.py` drives the processes and the merge.
 *
 * The merge operates on the line-oriented JSON the sweep writers
 * emit (one `"rows"` element per line, tagged with its work-item
 * index): row lines pass through verbatim, so merged output is
 * byte-identical to an unsharded run by construction, never
 * re-serialized through a float formatter.
 */

#ifndef GALS_SIM_SHARD_HH
#define GALS_SIM_SHARD_HH

#include <cstddef>
#include <string>
#include <vector>

namespace gals
{

/** One shard of a deterministically partitioned sweep. */
struct ShardSpec
{
    int index = 0; //!< 0-based shard id.
    int count = 1; //!< total shards; 1 = unsharded.

    bool sharded() const { return count > 1; }

    /** True when work item `k` belongs to this shard. */
    bool
    owns(std::size_t k) const
    {
        return static_cast<int>(k % static_cast<std::size_t>(count)) ==
               index;
    }

    bool operator==(const ShardSpec &) const = default;
};

/**
 * Parse "i/n" (0-based, 0 <= i < n, n >= 1) into `out`. Returns
 * false (leaving `out` untouched) on malformed text.
 */
bool parseShard(const char *text, ShardSpec &out);

/** GALS_SHARDS environment override; {0, 1} when unset or invalid. */
ShardSpec shardFromEnv();

/**
 * Merge per-shard sweep JSON documents into the document the
 * unsharded run would have written.
 *
 * Inputs must share identical headers apart from the `"shard"` line
 * and cover shards 0..count-1 exactly once; row indices must be
 * unique and contiguous from 0. Panics on malformed or incomplete
 * input (the merge gate is the last line of defense against silently
 * dropping sweep points).
 */
std::string mergeShardJson(const std::vector<std::string> &shards);

} // namespace gals

#endif // GALS_SIM_SHARD_HH
