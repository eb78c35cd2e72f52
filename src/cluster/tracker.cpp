#include "cluster/tracker.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/thread_pool.hpp"

namespace clusterbft::cluster {

using dataflow::OpKind;
using dataflow::Relation;
using mapreduce::MRJobSpec;

namespace {
// Cost model translating task work into simulated seconds.
//
// Calibrated to commodity 2013 hardware *ratios* (scan ~40 MB/s, SHA-256
// ~200 MB/s, shuffle fetch ~50 MB/s), with one canonical byte standing
// for ~1 KB of the paper's on-disk data: the evaluation inputs are GB-
// scale and data-bound, while the synthetic relations here are MB-scale.
// Only the ratios matter for reproducing the paper's shapes — a digest
// pass costs ~1/5 of a scan pass of the same stream, which is what puts
// single-verification-point overhead in the paper's ~8% range.
constexpr double kTaskOverheadS = 0.4;  ///< per-task startup (JVM spawn etc.)
constexpr double kInputByteS = 2.5e-5;       ///< scan+deserialise
constexpr double kOutputByteS = 2.5e-5;      ///< serialise+write
constexpr double kShuffleFetchByteS = 2e-5;  ///< reduce-side network fetch
constexpr double kRecordS = 1.5e-6;          ///< per-record operator work
constexpr double kDigestByteS = 5e-6;  ///< SHA-256 (~5x faster than a scan)
}  // namespace

ExecutionTracker::ExecutionTracker(EventSim& sim, mapreduce::Dfs& dfs,
                                   TrackerConfig cfg)
    : sim_(sim), dfs_(dfs), cfg_(std::move(cfg)) {
  resources_.add_nodes(cfg_.num_nodes, cfg_.slots_per_node);
  rng_seeder_ = Rng(cfg_.seed);
  for (NodeId n = 0; n < cfg_.num_nodes; ++n) {
    node_rngs_.emplace(n, rng_seeder_.fork());
  }
  if (cfg_.threads > 0) {
    pool_ = std::make_unique<common::ThreadPool>(cfg_.threads);
  }
}

ExecutionTracker::~ExecutionTracker() = default;

NodeId ExecutionTracker::add_nodes(std::size_t count, std::size_t slots,
                                   AdversaryPolicy policy) {
  const NodeId first = resources_.size();
  resources_.add_nodes(count, slots == 0 ? cfg_.slots_per_node : slots);
  for (NodeId n = first; n < first + count; ++n) {
    node_rngs_.emplace(n, rng_seeder_.fork());
    if (!policy.honest()) cfg_.policies[n] = policy;
  }
  if (on_nodes_added) on_nodes_added(first, count);
  dispatch();  // fresh capacity may unblock pending tasks immediately
  return first;
}

void ExecutionTracker::drain_node(NodeId nid) {
  resources_.entry(nid).excluded = true;
  if (on_node_drained) on_node_drained(nid);
}

void ExecutionTracker::readmit_node(NodeId nid) {
  // Silent death is permanent: a crashed node never echoes NodeReadmitted,
  // so the control tier keeps treating it as excluded.
  if (crashed_nodes_.count(nid) != 0) return;
  resources_.entry(nid).excluded = false;
  if (on_node_readmitted) on_node_readmitted(nid);
  dispatch();  // the node's free slots may unblock pending tasks
}

void ExecutionTracker::crash_node(NodeId nid) {
  crashed_nodes_.insert(nid);
  resources_.entry(nid).excluded = true;
  // Deliberately no on_node_drained: a dead node cannot announce its own
  // death. The control tier learns of it the honest way — timeouts.
}

double ExecutionTracker::node_speed(NodeId nid) const {
  auto it = cfg_.speeds.find(nid);
  return it == cfg_.speeds.end() ? 1.0 : it->second;
}

AdversaryPolicy ExecutionTracker::policy(NodeId nid) const {
  auto it = cfg_.policies.find(nid);
  return it == cfg_.policies.end() ? AdversaryPolicy{} : it->second;
}

std::size_t ExecutionTracker::submit(const dataflow::LogicalPlan& plan,
                                     const MRJobSpec& spec,
                                     std::size_t replica,
                                     std::vector<std::string> input_paths,
                                     std::string output_path,
                                     std::set<NodeId> avoid,
                                     std::set<NodeId> restrict_to,
                                     std::size_t max_nodes, bool urgent) {
  CBFT_CHECK_MSG(input_paths.size() == spec.branches.size(),
                 "one input path per branch required");
  JobRun run;
  run.plan = &plan;
  run.spec = &spec;
  run.replica = replica;
  run.metrics.submit_time = sim_.now();
  run.branch_inputs = std::move(input_paths);
  run.output_path = std::move(output_path);
  run.avoid = std::move(avoid);
  run.restrict_to = std::move(restrict_to);
  run.urgent = urgent;

  for (std::size_t b = 0; b < spec.branches.size(); ++b) {
    CBFT_CHECK_MSG(dfs_.exists(run.branch_inputs[b]),
                   "job submitted before its input exists: " +
                       run.branch_inputs[b]);
    const std::size_t splits = dfs_.num_splits(run.branch_inputs[b]);
    for (std::size_t s = 0; s < splits; ++s) {
      run.map_tasks.push_back(MapTaskDesc{b, s});
    }
  }
  run.map_status.assign(run.map_tasks.size(), TaskStatus::kPending);
  const std::size_t peak_tasks =
      std::max(run.map_tasks.size(),
               spec.map_only() ? std::size_t{0} : spec.num_reducers);
  run.node_cap = std::max<std::size_t>(
      1, (peak_tasks + cfg_.slots_per_node - 1) / cfg_.slots_per_node);
  if (max_nodes > 0) {
    run.node_cap = std::max<std::size_t>(1, std::min(run.node_cap, max_nodes));
  }
  if (!spec.map_only()) {
    int max_tag = 0;
    for (const mapreduce::MapBranch& b : spec.branches) {
      max_tag = std::max(max_tag, b.tag);
    }
    run.shuffle.assign(spec.num_reducers,
                       std::vector<Relation>(
                           static_cast<std::size_t>(max_tag) + 1));
  }

  runs_.push_back(std::move(run));
  const std::size_t run_id = runs_.size() - 1;
  for (std::size_t i = 0; i < runs_[run_id].map_tasks.size(); ++i) {
    pending_.push_back(TaskRef{run_id, false, i});
  }
  dispatch();
  return run_id;
}

void ExecutionTracker::cancel_run(std::size_t run_id) {
  CBFT_CHECK(run_id < runs_.size());
  JobRun& run = runs_[run_id];
  if (run.complete || run.cancelled) return;
  run.cancelled = true;
  std::erase_if(pending_,
                [run_id](const TaskRef& ref) { return ref.run == run_id; });
}

bool ExecutionTracker::run_complete(std::size_t run_id) const {
  CBFT_CHECK(run_id < runs_.size());
  return runs_[run_id].complete;
}

const JobRunMetrics& ExecutionTracker::run_metrics(std::size_t run_id) const {
  CBFT_CHECK(run_id < runs_.size());
  return runs_[run_id].metrics;
}

const std::set<NodeId>& ExecutionTracker::run_nodes(std::size_t run_id) const {
  CBFT_CHECK(run_id < runs_.size());
  return runs_[run_id].nodes;
}

std::string ExecutionTracker::run_output_path(std::size_t run_id) const {
  CBFT_CHECK(run_id < runs_.size());
  return runs_[run_id].output_path;
}

void ExecutionTracker::dispatch() {
  // Heartbeat sweep: nodes heartbeat in interleaved order, so each pass
  // hands at most one task to each node — work spreads across the
  // cluster instead of saturating the lowest node ids first. The sweep
  // ends once nothing is pending: assign_one has nothing to pick from.
  bool progress = true;
  while (progress) {
    progress = false;
    for (ResourceEntry& node : resources_.entries()) {
      if (pending_.empty()) break;
      if (node.excluded || node.free_ru() == 0) continue;
      if (assign_one(node)) progress = true;
    }
  }
  // Every payload started this sweep commits before dispatch returns, so
  // no simulator event is ever scheduled against an uncommitted task.
  commit_in_flight();
}

bool ExecutionTracker::assign_one(ResourceEntry& node) {
  // Build the *safe* candidate list: replica pinning guarantees a node
  // never touches two replicas of one sub-graph.
  std::vector<TaskCandidate> safe;
  std::vector<std::size_t> safe_pending_index;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const TaskRef& ref = pending_[i];
    const JobRun& run = runs_[ref.run];
    auto pin = pinned_.find({node.nid, run.spec->sid});
    if (pin != pinned_.end() && pin->second != run.replica) continue;
    if (run.avoid.count(node.nid)) continue;
    if (!run.restrict_to.empty() && !run.restrict_to.count(node.nid)) {
      continue;
    }
    // Don't widen a run's footprint past its parallelism needs.
    if (run.nodes.size() >= run.node_cap && !run.nodes.count(node.nid)) {
      continue;
    }
    safe.push_back(TaskCandidate{ref.run, run.spec->sid, run.replica,
                                 ref.reduce, ref.index, run.urgent});
    safe_pending_index.push_back(i);
  }
  if (safe.empty()) return false;
  // Urgency class first: a restart/escalation run gates a sub-graph the
  // control tier already knows is disagreeing, so its tasks must not
  // queue behind bulk first-wave work. Filtering (rather than sorting)
  // keeps every scheduling policy's order stable within a class.
  bool any_urgent = false;
  for (const TaskCandidate& c : safe) any_urgent = any_urgent || c.urgent;
  if (any_urgent) {
    std::vector<TaskCandidate> urgent_safe;
    std::vector<std::size_t> urgent_index;
    for (std::size_t i = 0; i < safe.size(); ++i) {
      if (!safe[i].urgent) continue;
      urgent_safe.push_back(safe[i]);
      urgent_index.push_back(safe_pending_index[i]);
    }
    safe.swap(urgent_safe);
    safe_pending_index.swap(urgent_index);
  }
  const auto choice = scheduler_.pick(node, safe);
  if (!choice) return false;
  CBFT_CHECK(*choice < safe.size());
  const std::size_t pi = safe_pending_index[*choice];
  const TaskRef ref = pending_[pi];
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(pi));
  start_task(node.nid, ref);
  return true;
}

void ExecutionTracker::start_task(NodeId nid, const TaskRef& ref) {
  JobRun& run = runs_[ref.run];
  const MRJobSpec& spec = *run.spec;
  resources_.allocate(nid, spec.sid);
  pinned_.emplace(std::make_pair(nid, spec.sid), run.replica);
  if (run.nodes.insert(nid).second && on_node_assigned) {
    // The control tier's suspicion denominator counts jobs *scheduled* on
    // the node, not jobs completed — a node that hangs everything it
    // touches must still accumulate a meaningful ratio.
    on_node_assigned(ref.run, nid);
  }
  (ref.reduce ? run.reduce_status : run.map_status)[ref.index] =
      TaskStatus::kRunning;

  const AdversaryPolicy pol = policy(nid);
  Rng& rng = node_rngs_.at(nid);

  if (rng.chance(pol.omission_prob)) {
    // The node silently hangs: the slot is never released and the task
    // never reports. The verifier's timeout is the only recourse.
    (ref.reduce ? run.reduce_status : run.map_status)[ref.index] =
        TaskStatus::kStuck;
    ++stuck_tasks_;
    CBFT_DEBUG("omission: node " << nid << " swallowed a task of "
                                 << spec.sid);
    return;
  }
  const bool commission = rng.chance(pol.commission_prob);
  // Digest-lying corruption draws from the node RNG once per digest
  // *after* the payload runs, so its draw count depends on the result.
  // Such payloads must execute inline at submission to keep every node's
  // RNG stream identical across pool sizes.
  const bool lies = commission && pol.lie_in_digest;

  InFlightTask fl;
  fl.nid = nid;
  fl.ref = ref;

  if (!ref.reduce) {
    const MapTaskDesc& desc = run.map_tasks[ref.index];
    // DFS reads, adversary draws and all other engine-state access stay
    // on this thread; only the pure payload goes to the pool.
    Relation split =
        dfs_.read_split(run.branch_inputs[desc.branch], desc.split);
    if (commission && !pol.lie_in_digest) corrupt_relation(split, rng);
    auto payload = [plan = run.plan, spec = run.spec, desc,
                    split = std::move(split)]() mutable {
      return mapreduce::run_map_task(*plan, *spec, desc.branch, desc.split,
                                     std::move(split));
    };
    if (pool_ != nullptr && !lies) {
      fl.map_future = pool_->submit(std::move(payload));
    } else {
      fl.map_ready = payload();
      if (lies) {
        for (mapreduce::DigestReport& r : fl.map_ready->digests) {
          r.digest.bytes[0] ^=
              static_cast<std::uint8_t>(1 + rng.next_below(255));
        }
      }
    }
  } else {
    const std::size_t partition = ref.index;
    // Moved (not referenced): runs_ may grow while the payload is in
    // flight. Each partition is handed to exactly one reduce task, once,
    // so nothing reads the shuffle slot again (the corruption below only
    // touches this task's own copy).
    std::vector<Relation> inputs = std::move(run.shuffle[partition]);
    if (commission && !pol.lie_in_digest) {
      corrupt_relation(inputs[0], rng);
    }
    auto payload = [plan = run.plan, spec = run.spec, partition,
                    inputs = std::move(inputs)]() {
      return mapreduce::run_reduce_task(*plan, *spec, partition, inputs);
    };
    if (pool_ != nullptr && !lies) {
      fl.reduce_future = pool_->submit(std::move(payload));
    } else {
      fl.reduce_ready = payload();
      if (lies) {
        for (mapreduce::DigestReport& r : fl.reduce_ready->digests) {
          r.digest.bytes[0] ^=
              static_cast<std::uint8_t>(1 + rng.next_below(255));
        }
      }
    }
  }
  in_flight_.push_back(std::move(fl));
}

void ExecutionTracker::commit_in_flight() {
  // Submission order == the order the sequential engine would have
  // finished each payload in, so draining in order reproduces its
  // duration computations, metric accumulation (float addition order
  // included) and event sequence numbers exactly. Nothing else schedules
  // simulator events between a submission and its commit, and simulated
  // time does not advance inside a dispatch sweep.
  for (InFlightTask& fl : in_flight_) {
    JobRun& run = runs_[fl.ref.run];
    const double speed = node_speed(fl.nid);
    if (!fl.ref.reduce) {
      mapreduce::MapTaskResult result = fl.map_ready.has_value()
                                            ? std::move(*fl.map_ready)
                                            : fl.map_future.get();
      const mapreduce::TaskMetrics& m = result.metrics;
      const double duration =
          (kTaskOverheadS +
           static_cast<double>(m.input_bytes) * kInputByteS +
           static_cast<double>(m.output_bytes) * kOutputByteS +
           static_cast<double>(m.records_in) * kRecordS +
           static_cast<double>(m.digested_bytes) * kDigestByteS) /
          speed;
      account_task(fl.ref.run, fl.nid, m, duration, /*reduce=*/false,
                   run.spec->map_only());
      sim_.schedule_after(duration, [this, nid = fl.nid, ref = fl.ref,
                                     result = std::move(result)]() mutable {
        complete_map_task(nid, ref, std::move(result));
      });
    } else {
      mapreduce::ReduceTaskResult result = fl.reduce_ready.has_value()
                                               ? std::move(*fl.reduce_ready)
                                               : fl.reduce_future.get();
      const mapreduce::TaskMetrics& m = result.metrics;
      const double duration =
          (kTaskOverheadS +
           static_cast<double>(m.input_bytes) *
               (kInputByteS + kShuffleFetchByteS) +
           static_cast<double>(m.output_bytes) * kOutputByteS +
           static_cast<double>(m.records_in) * kRecordS +
           static_cast<double>(m.digested_bytes) * kDigestByteS) /
          speed;
      account_task(fl.ref.run, fl.nid, m, duration, /*reduce=*/true, false);
      sim_.schedule_after(duration, [this, nid = fl.nid, ref = fl.ref,
                                     result = std::move(result)]() mutable {
        complete_reduce_task(nid, ref, std::move(result));
      });
    }
  }
  in_flight_.clear();
}

void ExecutionTracker::account_task(std::size_t run_id, NodeId nid,
                                    const mapreduce::TaskMetrics& m,
                                    double duration, bool reduce,
                                    bool map_only) {
  JobRun& run = runs_[run_id];
  run.metrics.cpu_seconds += duration;
  run.metrics.file_read += m.input_bytes;
  if (!reduce && !map_only) run.metrics.file_write += m.output_bytes;
  run.metrics.digested += m.digested_bytes;
  ++run.metrics.tasks_run;
  if (on_task_accounted) {
    TaskAccounting acct;
    acct.cpu_seconds = duration;
    acct.file_read = m.input_bytes;
    acct.file_write = (!reduce && !map_only) ? m.output_bytes : 0;
    acct.digested = m.digested_bytes;
    on_task_accounted(run_id, nid, reduce, acct);
  }
}

void ExecutionTracker::emit_digests(
    const JobRun& run, std::size_t run_id, NodeId nid,
    std::vector<mapreduce::DigestReport> digests) {
  if (!on_digests || digests.empty()) return;
  for (mapreduce::DigestReport& r : digests) r.replica = run.replica;
  on_digests(std::move(digests), run_id, nid);
}

void ExecutionTracker::complete_map_task(NodeId nid, const TaskRef& ref,
                                         mapreduce::MapTaskResult result) {
  JobRun& run = runs_[ref.run];
  const MRJobSpec& spec = *run.spec;
  if (crashed_nodes_.count(nid) != 0) {
    // The node died while this task was in flight: its result, digests
    // and slot vanish with it. The task hangs forever.
    run.map_status[ref.index] = TaskStatus::kStuck;
    ++stuck_tasks_;
    dispatch();
    return;
  }
  resources_.release(nid, spec.sid);
  run.map_status[ref.index] = TaskStatus::kDone;
  ++run.maps_done;
  if (run.cancelled) {
    dispatch();
    return;
  }

  emit_digests(run, ref.run, nid, std::move(result.digests));

  if (spec.map_only()) {
    if (run.direct_slices.empty()) {
      run.direct_slices.resize(run.map_tasks.size());
    }
    run.direct_slices[ref.index] = std::move(result.direct_output);
  } else {
    const int tag = spec.branches[run.map_tasks[ref.index].branch].tag;
    for (std::size_t p = 0; p < result.partitions.size(); ++p) {
      Relation& bucket = run.shuffle[p][static_cast<std::size_t>(tag)];
      if (bucket.schema().size() == 0) {
        bucket = Relation(result.partitions[p].schema());
      }
      bucket.reserve(bucket.size() + result.partitions[p].size());
      for (dataflow::Tuple& t : result.partitions[p].rows()) {
        bucket.add(std::move(t));
      }
    }
  }

  if (run.maps_done == run.map_tasks.size()) {
    if (spec.map_only()) {
      finish_run(ref.run);
    } else {
      begin_reduce_phase(ref.run);
    }
  }
  dispatch();
}

void ExecutionTracker::begin_reduce_phase(std::size_t run_id) {
  JobRun& run = runs_[run_id];
  CBFT_CHECK(!run.reduce_phase);
  run.reduce_phase = true;
  run.reduce_status.assign(run.spec->num_reducers, TaskStatus::kPending);
  run.direct_slices.resize(run.spec->num_reducers);
  // Reduce inputs may still miss a schema if no map task sent rows to a
  // partition/tag; fill from the map-side output schema of each tag.
  for (std::size_t p = 0; p < run.shuffle.size(); ++p) {
    for (std::size_t tag = 0; tag < run.shuffle[p].size(); ++tag) {
      if (run.shuffle[p][tag].schema().size() != 0) continue;
      for (const mapreduce::MapBranch& b : run.spec->branches) {
        if (static_cast<std::size_t>(b.tag) != tag) continue;
        const dataflow::OpId tail =
            b.map_ops.empty() ? b.source_vertex : b.map_ops.back();
        run.shuffle[p][tag] = Relation(run.plan->node(tail).schema);
        break;
      }
    }
  }
  for (std::size_t r = 0; r < run.spec->num_reducers; ++r) {
    pending_.push_back(TaskRef{run_id, true, r});
  }
}

void ExecutionTracker::complete_reduce_task(
    NodeId nid, const TaskRef& ref, mapreduce::ReduceTaskResult result) {
  JobRun& run = runs_[ref.run];
  if (crashed_nodes_.count(nid) != 0) {
    run.reduce_status[ref.index] = TaskStatus::kStuck;
    ++stuck_tasks_;
    dispatch();
    return;
  }
  resources_.release(nid, run.spec->sid);
  run.reduce_status[ref.index] = TaskStatus::kDone;
  ++run.reduces_done;
  if (run.cancelled) {
    dispatch();
    return;
  }

  emit_digests(run, ref.run, nid, std::move(result.digests));
  run.direct_slices[ref.index] = std::move(result.output);

  if (run.reduces_done == run.spec->num_reducers) {
    finish_run(ref.run);
  }
  dispatch();
}

void ExecutionTracker::finish_run(std::size_t run_id) {
  JobRun& run = runs_[run_id];
  CBFT_CHECK(!run.complete);

  const dataflow::Schema& out_schema =
      run.plan->node(run.spec->output_vertex).schema;
  Relation out(out_schema);
  for (Relation& slice : run.direct_slices) {
    for (dataflow::Tuple& t : slice.rows()) out.add(std::move(t));
  }
  dfs_.write(run.output_path, std::move(out));
  run.metrics.hdfs_write += dfs_.size_of(run.output_path);

  run.metrics.finish_time = sim_.now();
  run.complete = true;
  CBFT_DEBUG("run " << run_id << " (" << run.spec->sid << " replica "
                    << run.replica << ") complete at " << sim_.now());
  if (on_run_complete) on_run_complete(run_id);
}

}  // namespace clusterbft::cluster
