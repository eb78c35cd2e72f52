// Layer replay: one honest replica of a script's compiled job DAG, driven
// through the layers' public functions with a timer around each call.
//
// The front end (parse_script, core::analyze, mapreduce::compile) is
// timed per script. The data plane mirrors what the execution tracker
// does for one replica: Dfs::read_split and run_map_task per split, the
// shuffle assembled in task order, run_reduce_task per partition, the
// output concatenated in task order, sized with Relation::byte_size and
// written with Dfs::write. Canonical sorting (sorted_rows), serialisation
// (serialize_tuple_into) and SHA-256 digesting (ChunkedDigester) are then
// timed as separate passes over every job output.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "dataflow/relation.hpp"

namespace perfbench {

struct FrontEndTimes {
  double parse_s = 0;
  double analyze_s = 0;
  double compile_s = 0;
};

/// Parse, analyse and compile `req` as the controller does, given the
/// input sizes of its LOAD paths.
FrontEndTimes time_front_end(
    const clusterbft::core::ClientRequest& req,
    const std::map<std::string, std::uint64_t>& input_sizes);

struct DataPlaneReplay {
  // Replica execution, seconds.
  double split_read_s = 0;
  double map_task_s = 0;
  double reduce_task_s = 0;
  double byte_size_s = 0;
  double dfs_write_s = 0;
  // Passes over every job output, seconds.
  double sort_s = 0;
  double serialize_s = 0;
  double digest_s = 0;
  // Work done.
  std::uint64_t jobs = 0;
  std::uint64_t splits = 0;
  std::uint64_t reduce_tasks = 0;
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t serialized_bytes = 0;
  /// replica_s() spent on each job, by job index.
  std::vector<double> job_s;
  /// The replica's final STORE outputs (checked against the reference).
  std::map<std::string, clusterbft::dataflow::Relation> stores;

  /// What the replica itself spent: read, map, reduce, size and write.
  double replica_s() const {
    return split_read_s + map_task_s + reduce_task_s + byte_size_s +
           dfs_write_s;
  }

  /// Add another replay's times and counts (not its per-job times or
  /// outputs): the total over several scripts' DAGs.
  void accumulate(const DataPlaneReplay& other);
};

DataPlaneReplay replay_data_plane(
    const clusterbft::core::ClientRequest& req,
    const std::map<std::string, clusterbft::dataflow::Relation>& inputs,
    std::uint64_t block_size);

}  // namespace perfbench
