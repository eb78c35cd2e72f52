#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/graph_analyzer.hpp"
#include "crypto/digest.hpp"
#include "dataflow/parser.hpp"
#include "dataflow/value.hpp"
#include "mapreduce/compiler.hpp"
#include "mapreduce/dfs.hpp"
#include "mapreduce/task.hpp"

namespace perfbench {

namespace cbft = clusterbft;
using cbft::dataflow::Relation;
using cbft::dataflow::Tuple;
using Clock = std::chrono::steady_clock;

namespace {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Compiled {
  cbft::dataflow::LogicalPlan plan;
  cbft::mapreduce::JobDag dag;
};

/// The controller's begin-session front end (parse, annotate LOAD sizes,
/// analyse, compile), optionally timed phase by phase.
Compiled compile_script(const cbft::core::ClientRequest& req,
                        const std::map<std::string, std::uint64_t>& input_sizes,
                        FrontEndTimes* times) {
  FrontEndTimes t;
  Compiled c;
  auto t0 = Clock::now();
  c.plan = cbft::dataflow::parse_script(req.script);
  t.parse_s = since(t0);
  for (cbft::dataflow::OpId v : c.plan.loads()) {
    cbft::dataflow::OpNode& n = c.plan.node(v);
    const auto it = input_sizes.find(n.path);
    if (it == input_sizes.end()) {
      throw std::invalid_argument("replay: no input for LOAD " + n.path);
    }
    n.declared_input_bytes = it->second;
  }
  t0 = Clock::now();
  const auto vps = cbft::core::analyze(c.plan, input_sizes, req);
  t.analyze_s = since(t0);
  cbft::mapreduce::CompileOptions copts;
  copts.default_reducers = req.reducers_per_job;
  copts.sid_prefix = req.name + "#1";
  t0 = Clock::now();
  c.dag = cbft::mapreduce::compile(c.plan, vps, copts);
  t.compile_s = since(t0);
  if (times != nullptr) *times = t;
  return c;
}

void accumulate(DataPlaneReplay& out, const cbft::mapreduce::TaskMetrics& m) {
  out.records_in += m.records_in;
  out.records_out += m.records_out;
  out.bytes_in += m.input_bytes;
  out.bytes_out += m.output_bytes;
}

/// One replica of one job, in the execution tracker's order.
void run_job(const cbft::dataflow::LogicalPlan& plan,
             const cbft::mapreduce::MRJobSpec& spec,
             cbft::mapreduce::Dfs& dfs, DataPlaneReplay& out) {
  int max_tag = 0;
  for (const cbft::mapreduce::MapBranch& b : spec.branches) {
    max_tag = std::max(max_tag, b.tag);
  }
  std::vector<std::vector<Relation>> shuffle;
  if (!spec.map_only()) {
    shuffle.assign(spec.num_reducers,
                   std::vector<Relation>(static_cast<std::size_t>(max_tag) + 1));
  }
  std::vector<Relation> slices;

  for (std::size_t b = 0; b < spec.branches.size(); ++b) {
    const std::string& input = spec.branches[b].input_path;
    const std::size_t splits = dfs.num_splits(input);
    for (std::size_t s = 0; s < splits; ++s) {
      auto t0 = Clock::now();
      Relation split = dfs.read_split(input, s);
      out.split_read_s += since(t0);
      t0 = Clock::now();
      cbft::mapreduce::MapTaskResult r =
          cbft::mapreduce::run_map_task(plan, spec, b, s, std::move(split));
      out.map_task_s += since(t0);
      ++out.splits;
      accumulate(out, r.metrics);
      if (spec.map_only()) {
        slices.push_back(std::move(r.direct_output));
        continue;
      }
      const auto tag = static_cast<std::size_t>(spec.branches[b].tag);
      for (std::size_t p = 0; p < r.partitions.size(); ++p) {
        Relation& bucket = shuffle[p][tag];
        if (bucket.schema().size() == 0) {
          bucket = Relation(r.partitions[p].schema());
        }
        bucket.reserve(bucket.size() + r.partitions[p].size());
        for (Tuple& t : r.partitions[p].rows()) bucket.add(std::move(t));
      }
    }
  }

  if (!spec.map_only()) {
    // A partition that received no rows for a tag still needs the tag's
    // schema, as in ExecutionTracker::begin_reduce_phase.
    for (std::vector<Relation>& partition : shuffle) {
      for (std::size_t tag = 0; tag < partition.size(); ++tag) {
        if (partition[tag].schema().size() != 0) continue;
        for (const cbft::mapreduce::MapBranch& b : spec.branches) {
          if (static_cast<std::size_t>(b.tag) != tag) continue;
          const cbft::dataflow::OpId tail =
              b.map_ops.empty() ? b.source_vertex : b.map_ops.back();
          partition[tag] = Relation(plan.node(tail).schema);
          break;
        }
      }
    }
    slices.clear();
    for (std::size_t p = 0; p < spec.num_reducers; ++p) {
      const auto t0 = Clock::now();
      cbft::mapreduce::ReduceTaskResult r =
          cbft::mapreduce::run_reduce_task(plan, spec, p, shuffle[p]);
      out.reduce_task_s += since(t0);
      ++out.reduce_tasks;
      accumulate(out, r.metrics);
      slices.push_back(std::move(r.output));
    }
  }

  Relation output(plan.node(spec.output_vertex).schema);
  for (Relation& slice : slices) {
    for (Tuple& t : slice.rows()) output.add(std::move(t));
  }

  auto t0 = Clock::now();
  const std::uint64_t bytes = output.byte_size();
  out.byte_size_s += since(t0);

  t0 = Clock::now();
  const std::vector<Tuple> sorted = output.sorted_rows();
  out.sort_s += since(t0);

  std::vector<std::string> records(sorted.size());
  t0 = Clock::now();
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    cbft::dataflow::serialize_tuple_into(sorted[i], records[i]);
  }
  out.serialize_s += since(t0);

  t0 = Clock::now();
  cbft::crypto::ChunkedDigester digester;
  for (const std::string& rec : records) digester.add_record(rec);
  const std::vector<cbft::crypto::ChunkDigest> digests = digester.finish();
  out.digest_s += since(t0);
  std::uint64_t serialized = 0;
  for (const std::string& rec : records) serialized += rec.size();
  out.serialized_bytes += serialized;
  if (digests.empty() && !records.empty()) {
    throw std::logic_error("replay: digester produced no digest");
  }
  if (serialized != bytes) {
    throw std::logic_error("replay: byte_size disagrees with serialisation");
  }

  if (spec.is_final_store) out.stores.emplace(spec.output_path, output);
  t0 = Clock::now();
  dfs.write(spec.output_path, std::move(output));
  out.dfs_write_s += since(t0);
}

}  // namespace

void DataPlaneReplay::accumulate(const DataPlaneReplay& other) {
  split_read_s += other.split_read_s;
  map_task_s += other.map_task_s;
  reduce_task_s += other.reduce_task_s;
  byte_size_s += other.byte_size_s;
  dfs_write_s += other.dfs_write_s;
  sort_s += other.sort_s;
  serialize_s += other.serialize_s;
  digest_s += other.digest_s;
  jobs += other.jobs;
  splits += other.splits;
  reduce_tasks += other.reduce_tasks;
  records_in += other.records_in;
  records_out += other.records_out;
  bytes_in += other.bytes_in;
  bytes_out += other.bytes_out;
  serialized_bytes += other.serialized_bytes;
}

FrontEndTimes time_front_end(
    const cbft::core::ClientRequest& req,
    const std::map<std::string, std::uint64_t>& input_sizes) {
  FrontEndTimes t;
  compile_script(req, input_sizes, &t);
  return t;
}

DataPlaneReplay replay_data_plane(
    const cbft::core::ClientRequest& req,
    const std::map<std::string, Relation>& inputs, std::uint64_t block_size) {
  cbft::mapreduce::Dfs dfs(block_size);
  std::map<std::string, std::uint64_t> sizes;
  for (const auto& [path, rel] : inputs) {
    dfs.write(path, rel);
    sizes[path] = dfs.size_of(path);
  }
  const Compiled c = compile_script(req, sizes, nullptr);
  DataPlaneReplay out;
  out.jobs = c.dag.jobs.size();
  out.job_s.assign(c.dag.jobs.size(), 0.0);
  std::vector<bool> done(c.dag.jobs.size(), false);
  std::size_t completed = 0;
  while (completed < c.dag.jobs.size()) {
    const std::vector<std::size_t> ready = c.dag.ready(done);
    if (ready.empty()) throw std::logic_error("replay: job DAG has a cycle");
    for (std::size_t j : ready) {
      const double before = out.replica_s();
      run_job(c.plan, c.dag.jobs[j], dfs, out);
      out.job_s[j] = out.replica_s() - before;
      done[j] = true;
      ++completed;
    }
  }
  return out;
}

}  // namespace perfbench
