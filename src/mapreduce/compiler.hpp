// Compiles a logical plan into a DAG of MapReduce jobs, mirroring how Pig
// compiles PigLatin scripts to Hadoop jobs (§2.2): streaming operators run
// map-side, each blocking operator (GROUP/JOIN/DISTINCT/ORDER) forces a
// shuffle, and the chain of jobs forms the sub-graphs ClusterBFT
// replicates.
#pragma once

#include <string>
#include <vector>

#include "dataflow/plan.hpp"
#include "mapreduce/job.hpp"

namespace clusterbft::mapreduce {

struct CompileOptions {
  /// Reducers per shuffle job (ORDER/LIMIT jobs are forced to 1 so the cut
  /// is global). All replicas use the same value — the paper requires
  /// replicas to be configured with the same number of reduce tasks.
  std::size_t default_reducers = 4;

  /// sid = sid_prefix + ":j" + job_index. Replicas of one sub-graph share
  /// the sid; the scheduler uses it to avoid collocating replicas.
  std::string sid_prefix = "script";
};

/// Compile `plan`, instrumenting the given verification points (vertices
/// chosen by the graph analyzer, each with its digest granularity d).
/// Points on STORE vertices are normalised to the store's input vertex.
JobDag compile(const dataflow::LogicalPlan& plan,
               const std::vector<VerificationPoint>& vps,
               const CompileOptions& opts);

}  // namespace clusterbft::mapreduce
