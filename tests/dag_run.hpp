// The in-process MapReduce executor shared by tests and the analysis
// tools: a compiled JobDag runs on cluster::ExecutionTracker, the
// executor every replica runs, so the determinism and parity checks see
// the same shuffle assembly, empty-partition schemas and slice
// concatenation the verifier's digests come from.
//
// `run_chain` drives one replica chain on a caller-built tracker;
// `run_one_node` builds a tracker with one honest node around it and
// collects the digest stream, the job outputs and the per-job metrics.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/event_sim.hpp"
#include "cluster/tracker.hpp"
#include "common/check.hpp"
#include "dataflow/plan.hpp"
#include "dataflow/relation.hpp"
#include "mapreduce/dfs.hpp"
#include "mapreduce/job.hpp"

namespace clusterbft::testgen {

/// DFS inputs of `spec` for a chain whose paths live under `scope`: LOAD
/// inputs are the trusted originals and stay unscoped; every other input
/// is an upstream output of the same chain.
inline std::vector<std::string> chain_inputs(const dataflow::LogicalPlan& plan,
                                             const mapreduce::MRJobSpec& spec,
                                             const std::string& scope) {
  std::vector<std::string> paths;
  for (const mapreduce::MapBranch& b : spec.branches) {
    const bool load =
        plan.node(b.source_vertex).kind == dataflow::OpKind::kLoad;
    paths.push_back(load ? b.input_path : scope + b.input_path);
  }
  return paths;
}

/// Submit every job of `dag` as `replica` in index order (the compiler
/// emits jobs topologically), running the simulator to idle after each
/// so every input exists before its consumer is submitted. Job j writes
/// `scope + dag.jobs[j].output_path`. Returns one run id per job.
inline std::vector<std::size_t> run_chain(cluster::ExecutionTracker& tracker,
                                          const dataflow::LogicalPlan& plan,
                                          const mapreduce::JobDag& dag,
                                          std::size_t replica = 0,
                                          const std::string& scope = "") {
  std::vector<std::size_t> runs;
  for (const mapreduce::MRJobSpec& spec : dag.jobs) {
    runs.push_back(tracker.submit(plan, spec, replica,
                                  chain_inputs(plan, spec, scope),
                                  scope + spec.output_path));
    tracker.sim().run();
  }
  return runs;
}

/// One DAG execution on a single honest node.
struct OneNodeRun {
  /// Every digest report, in emission order.
  std::vector<mapreduce::DigestReport> digests;
  /// Output of every job (intermediates included), by output path.
  std::map<std::string, dataflow::Relation> outputs;
  /// Per job, in job order.
  std::vector<cluster::JobRunMetrics> metrics;
};

/// Execute `dag` against the inputs already in `dfs` on an
/// ExecutionTracker with one honest node; outputs are written back to
/// `dfs`. `threads` sizes the tracker's payload pool, which changes no
/// byte of the result. Throws CheckError if a job does not complete.
inline OneNodeRun run_one_node(const dataflow::LogicalPlan& plan,
                               const mapreduce::JobDag& dag,
                               mapreduce::Dfs& dfs, std::size_t threads = 0) {
  cluster::EventSim sim;
  cluster::TrackerConfig cfg;
  cfg.num_nodes = 1;
  cfg.threads = threads;
  cluster::ExecutionTracker tracker(sim, dfs, cfg);
  OneNodeRun out;
  tracker.on_digests = [&out](std::vector<mapreduce::DigestReport>&& reports,
                              std::size_t, cluster::NodeId) {
    for (mapreduce::DigestReport& r : reports) {
      out.digests.push_back(std::move(r));
    }
  };
  const std::vector<std::size_t> runs = run_chain(tracker, plan, dag);
  for (std::size_t j = 0; j < runs.size(); ++j) {
    const std::string& path = dag.jobs[j].output_path;
    CBFT_CHECK_MSG(tracker.run_complete(runs[j]),
                   "one-node run: job did not complete: " + path);
    out.outputs.emplace(path, dfs.peek(path));
    out.metrics.push_back(tracker.run_metrics(runs[j]));
  }
  return out;
}

}  // namespace clusterbft::testgen
