// The execution tracker (§4.2): accepts job-replica submissions from the
// job initiator, assigns tasks to simulated nodes on (implicit) heartbeats
// via the overlap scheduler, lets per-node adversary policies inject
// Byzantine faults, forwards verification-point digests to the control
// tier, and accounts the metrics Table 3 reports.
//
// One `submit` = one *replica* of one MapReduce job (a "job run"). The
// replica-safety invariant — a node never executes tasks of two different
// replicas of the same sub-graph — is enforced here by pinning (node, sid)
// to the first replica scheduled on it.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/adversary.hpp"
#include "cluster/event_sim.hpp"
#include "cluster/resource_table.hpp"
#include "cluster/scheduler.hpp"
#include "common/rng.hpp"
#include "dataflow/plan.hpp"
#include "mapreduce/dfs.hpp"
#include "mapreduce/job.hpp"
#include "mapreduce/task.hpp"

namespace clusterbft::common {
class ThreadPool;
}  // namespace clusterbft::common

namespace clusterbft::cluster {

struct TrackerConfig {
  std::size_t num_nodes = 16;
  std::size_t slots_per_node = 3;
  std::uint64_t seed = 1;
  /// Per-node adversary policies; missing entries are honest.
  std::map<NodeId, AdversaryPolicy> policies;
  /// Per-node speed factors; missing entries are 1.0 (heterogeneity knob).
  std::map<NodeId, double> speeds;
  /// Worker threads executing task payloads (0 = run payloads inline).
  /// Any value yields bit-identical digests, metrics and schedules — see
  /// DESIGN.md "Parallel execution engine"; only wall-clock time changes.
  std::size_t threads = 0;
};

struct JobRunMetrics {
  SimTime submit_time = 0;
  SimTime finish_time = 0;
  double cpu_seconds = 0;          ///< sum of task durations
  std::uint64_t file_read = 0;     ///< task input bytes (splits + shuffle)
  std::uint64_t file_write = 0;    ///< intermediate (shuffle) bytes written
  std::uint64_t hdfs_write = 0;    ///< job output bytes written to the DFS
  std::uint64_t digested = 0;      ///< bytes hashed at verification points
  std::size_t tasks_run = 0;
};

class ExecutionTracker {
 public:
  ExecutionTracker(EventSim& sim, mapreduce::Dfs& dfs, TrackerConfig cfg);
  ~ExecutionTracker();  // out of line: ThreadPool is incomplete here

  /// Resource deltas one committed task contributed to its run — the
  /// payload of a protocol Heartbeat. `file_write` already excludes
  /// reduce/map-only output (which is DFS output, not intermediate).
  struct TaskAccounting {
    double cpu_seconds = 0;
    std::uint64_t file_read = 0;
    std::uint64_t file_write = 0;
    std::uint64_t digested = 0;
  };

  // ---- outbound events (the computation tier's side of the protocol) ----
  // The computation service translates these into protocol messages; no
  // control-tier code binds them directly.

  /// Digest messages from one task to the verifier (control tier),
  /// batched per task. The node id lets the verifier update suspicion
  /// levels on mismatch.
  std::function<void(std::vector<mapreduce::DigestReport>&&,
                     std::size_t run_id, NodeId node)>
      on_digests;

  /// A job replica finished writing its output.
  std::function<void(std::size_t run_id)> on_run_complete;

  /// `node` joined the run (first task scheduled there) — fires even when
  /// the task is then swallowed by an omission adversary, because the
  /// control tier's omission attribution needs the full node set.
  std::function<void(std::size_t run_id, NodeId node)> on_node_assigned;

  /// One task committed; `acct` holds its metric deltas.
  std::function<void(std::size_t run_id, NodeId node, bool reduce,
                     const TaskAccounting& acct)>
      on_task_accounted;

  /// Nodes [first, first+count) registered (elasticity).
  std::function<void(NodeId first, std::size_t count)> on_nodes_added;

  /// A node stopped accepting tasks.
  std::function<void(NodeId node)> on_node_drained;

  /// A previously drained node resumed accepting tasks.
  std::function<void(NodeId node)> on_node_readmitted;

  /// Submit one replica of `spec` with fully resolved DFS paths:
  /// `input_paths[i]` is where branch i reads (the original trusted input,
  /// a verified upstream output, or this replica chain's own intermediate)
  /// and `output_path` is where this replica writes. The caller scopes
  /// paths per replica so replicas never clobber each other. Returns the
  /// run id.
  ///
  /// Plan and spec must outlive the tracker.
  /// `avoid` lists nodes this run must not be scheduled on — the control
  /// tier passes the current fault-analyzer suspects for rerun waves
  /// ("smart deployment", §3.3). A non-empty `restrict_to` confines the
  /// run to exactly those nodes — how dummy probe jobs are overlaid on a
  /// suspicious replication group.
  /// `max_nodes` (0 = unlimited) additionally caps the replica's node
  /// footprint — the control tier passes cluster_size/(r+1) so that r
  /// sibling replicas plus a rerun replica can always find unpinned
  /// nodes, whatever the job's parallelism.
  /// `urgent` marks a restart/escalation run of an already-disagreeing
  /// sub-graph: on every heartbeat, urgent pending tasks are offered to
  /// the scheduler before bulk work so targeted rollback is not
  /// serialised behind first-wave queues.
  std::size_t submit(const dataflow::LogicalPlan& plan,
                     const mapreduce::MRJobSpec& spec, std::size_t replica,
                     std::vector<std::string> input_paths,
                     std::string output_path, std::set<NodeId> avoid = {},
                     std::set<NodeId> restrict_to = {},
                     std::size_t max_nodes = 0, bool urgent = false);

  /// The id the next submit() will return — lets a submitting service map
  /// its own run identifiers *before* submit dispatches inline (tracker
  /// hooks fire before submit returns).
  std::size_t next_run_id() const { return runs_.size(); }

  /// Abandon a run: pending tasks are dropped, in-flight task results are
  /// discarded on completion, and the run never reports complete. Slots
  /// of running tasks are still released normally.
  void cancel_run(std::size_t run_id);

  bool run_complete(std::size_t run_id) const;
  const JobRunMetrics& run_metrics(std::size_t run_id) const;

  /// Nodes that executed at least one task of the run — the "job cluster"
  /// the fault analyzer reasons about.
  const std::set<NodeId>& run_nodes(std::size_t run_id) const;

  /// The DFS path this run's output was (or will be) written to.
  std::string run_output_path(std::size_t run_id) const;

  ResourceTable& resources() { return resources_; }
  const ResourceTable& resources() const { return resources_; }

  /// Tasks hung forever by omission-faulty nodes.
  std::size_t stuck_tasks() const { return stuck_tasks_; }

  /// Elasticity (§3.3: the worker cluster "can be adapted dynamically, by
  /// adding and removing nodes"): register `count` fresh nodes; they start
  /// taking tasks on the next heartbeat sweep. Returns the first new id.
  NodeId add_nodes(std::size_t count, std::size_t slots = 0,
                   AdversaryPolicy policy = {});

  /// Drain a node: no new tasks (running tasks finish normally).
  void drain_node(NodeId nid);

  /// Graceful-degradation inverse of drain_node: resume scheduling onto
  /// the node (fires on_node_readmitted and a dispatch sweep, since
  /// fresh capacity may unblock pending tasks).
  void readmit_node(NodeId nid);

  /// Fault injection (chaos FaultPlan): kill a worker node. The node
  /// stops taking tasks, and every in-flight task it holds dies silently
  /// — no digests, no heartbeat completion, no slot release — so from
  /// the control tier it looks like a partial digest stream followed by
  /// silence. There is no echo: a crashed node cannot announce its own
  /// death. Crashing is permanent (readmitting a crashed node only makes
  /// the scheduler hand it tasks that hang forever).
  void crash_node(NodeId nid);

  mapreduce::Dfs& dfs() { return dfs_; }
  EventSim& sim() { return sim_; }

 private:
  struct MapTaskDesc {
    std::size_t branch = 0;
    std::size_t split = 0;
  };
  enum class TaskStatus { kPending, kRunning, kDone, kStuck };

  struct JobRun {
    const dataflow::LogicalPlan* plan = nullptr;
    const mapreduce::MRJobSpec* spec = nullptr;
    std::size_t replica = 0;
    std::vector<std::string> branch_inputs;  ///< resolved DFS paths
    std::string output_path;                 ///< resolved DFS path

    std::vector<MapTaskDesc> map_tasks;
    std::vector<TaskStatus> map_status;
    std::vector<TaskStatus> reduce_status;  ///< empty until reduce phase
    std::size_t maps_done = 0;
    std::size_t reduces_done = 0;
    bool reduce_phase = false;
    bool complete = false;
    bool cancelled = false;

    /// Shuffle buffers: [partition][tag] accumulated rows.
    std::vector<std::vector<dataflow::Relation>> shuffle;
    /// Map-only jobs: per-task slices, concatenated in task order at the end.
    std::vector<dataflow::Relation> direct_slices;

    std::set<NodeId> nodes;
    std::set<NodeId> avoid;        ///< nodes barred from this run
    std::set<NodeId> restrict_to;  ///< if non-empty, the only allowed nodes
    bool urgent = false;           ///< drain before bulk pending work
    /// Cap on |nodes|: enough for the run's peak task parallelism, but no
    /// wider — every extra node a replica touches gets pinned to it and
    /// becomes unusable for sibling/rerun replicas of the same sub-graph.
    std::size_t node_cap = 1;
    JobRunMetrics metrics;
  };

  struct TaskRef {
    std::size_t run = 0;
    bool reduce = false;
    std::size_t index = 0;
  };

  /// A task whose payload has been started (inline or handed to the
  /// worker pool) during the current dispatch sweep but whose result has
  /// not yet been committed. Exactly one of the four slots is engaged:
  /// futures for pooled payloads, ready results for inline ones.
  struct InFlightTask {
    NodeId nid = 0;
    TaskRef ref;
    std::future<mapreduce::MapTaskResult> map_future;
    std::future<mapreduce::ReduceTaskResult> reduce_future;
    std::optional<mapreduce::MapTaskResult> map_ready;
    std::optional<mapreduce::ReduceTaskResult> reduce_ready;
  };

  void dispatch();
  bool assign_one(ResourceEntry& node);
  void start_task(NodeId nid, const TaskRef& ref);
  /// Drain `in_flight_` in submission order: compute each task's
  /// simulated duration, account its metrics and schedule its completion
  /// event. Running this at the end of every dispatch sweep (instead of
  /// inside start_task) is what makes worker-pool execution bit-identical
  /// to the sequential engine — see DESIGN.md "Parallel execution engine".
  void commit_in_flight();
  void complete_map_task(NodeId nid, const TaskRef& ref,
                         mapreduce::MapTaskResult result);
  void complete_reduce_task(NodeId nid, const TaskRef& ref,
                            mapreduce::ReduceTaskResult result);
  void account_task(std::size_t run_id, NodeId nid,
                    const mapreduce::TaskMetrics& m, double duration,
                    bool reduce, bool map_only);
  void begin_reduce_phase(std::size_t run_id);
  void finish_run(std::size_t run_id);
  void emit_digests(const JobRun& run, std::size_t run_id, NodeId nid,
                    std::vector<mapreduce::DigestReport> digests);
  double node_speed(NodeId nid) const;
  AdversaryPolicy policy(NodeId nid) const;

  EventSim& sim_;
  mapreduce::Dfs& dfs_;
  TrackerConfig cfg_;
  ResourceTable resources_;
  OverlapScheduler scheduler_;
  std::vector<JobRun> runs_;
  std::vector<TaskRef> pending_;
  /// Replica pinning: (node, sid) -> replica index first seen there.
  std::map<std::pair<NodeId, std::string>, std::size_t> pinned_;
  std::map<NodeId, Rng> node_rngs_;
  Rng rng_seeder_{1};
  std::size_t stuck_tasks_ = 0;
  std::set<NodeId> crashed_nodes_;  ///< dead workers: results swallowed
  bool dispatch_scheduled_ = false;
  /// Payload workers (null when cfg_.threads == 0).
  std::unique_ptr<common::ThreadPool> pool_;
  std::vector<InFlightTask> in_flight_;
};

}  // namespace clusterbft::cluster
