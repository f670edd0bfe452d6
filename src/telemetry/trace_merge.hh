/**
 * @file
 * Post-run merger for sharded Chrome traces: folds the per-shard
 * `.s<k>` streams written by TraceWriter into one trace document at
 * the un-suffixed path, so a sliced `--trace-out` run ends with a
 * single file whose track groups are the shards (pid == shard id) and
 * whose fabric flow arrows connect them.
 *
 * This is deliberately not a JSON parser: every input is produced by
 * our own TraceWriter, whose layout is fixed (prefix line, one event
 * per line joined by ",\n", then a `],"otherData":{...}` footer), so a
 * line-oriented text transform is exact. Event timestamps need no
 * sorting — the trace-event format does not require time order, and
 * each shard's stream is already monotonic per track, because every
 * shard runs on the machine's one queue.
 */

#ifndef DBSIM_TELEMETRY_TRACE_MERGE_HH
#define DBSIM_TELEMETRY_TRACE_MERGE_HH

#include <cstdint>
#include <string>

namespace dbsim::telemetry {

/**
 * Merge `base_path`.s0 .. .s<num_shards-1> (suffix spliced before the
 * extension, as withShardSuffix does) into one document at
 * `base_path`. Per-shard otherData totals are carried over under
 * "s<k>."-prefixed keys. The inputs are left in place.
 *
 * @return true on success; false (with a warning) if any shard file
 *         is missing or does not look like a TraceWriter document.
 */
bool mergeShardTraces(const std::string &base_path,
                      std::uint32_t num_shards);

} // namespace dbsim::telemetry

#endif // DBSIM_TELEMETRY_TRACE_MERGE_HH
