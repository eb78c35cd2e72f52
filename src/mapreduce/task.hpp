// Map/reduce task execution: the pure data-processing part of a task,
// independent of which simulated node runs it or when.
//
// The cluster layer (execution tracker) decides placement and timing and
// may let a Byzantine node corrupt the result afterwards; the functions
// here define what an *honest* task computes. Determinism note: results
// do not depend on map-task completion order — the blocking operators are
// order-insensitive (hash-partitioned grouping emits in canonical key
// order; DISTINCT/ORDER sort internally), and the few order-sensitive
// inputs (LIMIT, the JOIN probe side) are canonically sorted at the
// reduce boundary — implementing the intermediate-output ordering §5.4
// leaves to future work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataflow/plan.hpp"
#include "dataflow/relation.hpp"
#include "mapreduce/job.hpp"

namespace clusterbft::mapreduce {

struct TaskMetrics {
  std::uint64_t input_bytes = 0;   ///< bytes read (split or shuffle)
  std::uint64_t output_bytes = 0;  ///< bytes produced (intermediate or final)
  std::uint64_t digested_bytes = 0;  ///< bytes hashed at verification points
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;
};

struct MapTaskResult {
  /// Shuffle jobs: rows destined to each reduce partition (size = R).
  std::vector<dataflow::Relation> partitions;
  /// Map-only jobs: the task's slice of the job output.
  dataflow::Relation direct_output;
  /// Digests for verification points evaluated map-side in this task
  /// (replica number is filled in by the executor).
  std::vector<DigestReport> digests;
  TaskMetrics metrics;
};

struct ReduceTaskResult {
  dataflow::Relation output;
  std::vector<DigestReport> digests;
  TaskMetrics metrics;
};

/// Run map task (`branch`, input split `split_rows`) of `job`. The split
/// is taken by value so callers handing over a freshly read split (the
/// common case: `dfs.read_split(...)` rvalues) move it in instead of
/// paying a second deep copy inside the task.
MapTaskResult run_map_task(const dataflow::LogicalPlan& plan,
                           const MRJobSpec& job, std::size_t branch,
                           std::size_t split_index,
                           dataflow::Relation split_rows);

/// Whether the row order inside the bags of `job`'s GROUP can reach any
/// byte: true unless the job's blocking operator is a GROUP that is neither
/// a verification point nor the job output and whose only consumer is the
/// job's first reduce-side FOREACH, reading the bag column only as the
/// argument of COUNT or the built-in SIZE. Every other consumer (FILTER,
/// STORE, another job, AVG's double sum, MIN/MAX's choice among equal
/// values, aggregate UDFs, ROWHASH, a bag passed through) can see the
/// order, so non-GROUP jobs and all those cases answer true.
bool group_bag_order_observable(const dataflow::LogicalPlan& plan,
                                const MRJobSpec& job);

/// Run reduce task `partition` of `job`. `inputs_by_tag[t]` holds the
/// concatenated map outputs with branch tag `t` for this partition
/// (size 1 for GROUP/DISTINCT/ORDER, 2 for JOIN). A GROUP sorts its bags
/// canonically only when group_bag_order_observable(plan, job).
ReduceTaskResult run_reduce_task(
    const dataflow::LogicalPlan& plan, const MRJobSpec& job,
    std::size_t partition,
    const std::vector<dataflow::Relation>& inputs_by_tag);

/// Reduce partition a tuple belongs to, given the job's blocking operator.
/// Deterministic across replicas and platforms.
std::size_t shuffle_partition(const dataflow::OpNode& blocking_op, int tag,
                              const dataflow::Tuple& t,
                              std::size_t num_reducers);

/// Same, reusing `key_buf` for key serialisation — the map-side shuffle
/// loop calls this per tuple and should not allocate per call.
std::size_t shuffle_partition(const dataflow::OpNode& blocking_op, int tag,
                              const dataflow::Tuple& t,
                              std::size_t num_reducers, std::string& key_buf);

}  // namespace clusterbft::mapreduce
