#include "protocol/service.hpp"

#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "mapreduce/compiler.hpp"

namespace clusterbft::protocol {

namespace {
template <class... Ts>
struct Overload : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overload(Ts...) -> Overload<Ts...>;

// Ceilings on what a (possibly corrupted) command may ask for.
constexpr std::uint64_t kMaxAddNodes = 4096;
constexpr std::uint64_t kMaxSlots = 1024;
}  // namespace

ComputationService::ComputationService(cluster::ExecutionTracker& tracker,
                                       Transport& transport,
                                       const ProgramRegistry& programs,
                                       ServiceConfig cfg)
    : tracker_(tracker), transport_(transport), programs_(programs),
      cfg_(cfg) {
  transport_.bind_computation([this](const Message& m) { handle(m); });

  tracker_.on_node_assigned = [this](std::size_t run, cluster::NodeId nid) {
    const auto it = ctl_of_.find(run);
    if (it == ctl_of_.end()) return;
    emit(it->second, NodeStatus{it->second, cfg_.node_base + nid});
  };
  tracker_.on_task_accounted =
      [this](std::size_t run, cluster::NodeId nid, bool reduce,
             const cluster::ExecutionTracker::TaskAccounting& acct) {
        const auto it = ctl_of_.find(run);
        if (it == ctl_of_.end()) return;
        Heartbeat hb;
        hb.run = it->second;
        hb.node = cfg_.node_base + nid;
        hb.reduce = reduce ? 1 : 0;
        hb.cpu_seconds = acct.cpu_seconds;
        hb.file_read = acct.file_read;
        hb.file_write = acct.file_write;
        hb.digested = acct.digested;
        hb.seq = ++runs_.at(it->second).seq;
        emit(it->second, std::move(hb));
      };
  tracker_.on_digests = [this](std::vector<mapreduce::DigestReport>&& reports,
                               std::size_t run, cluster::NodeId nid) {
    const auto it = ctl_of_.find(run);
    if (it == ctl_of_.end()) return;
    RunRecord& rec = runs_.at(it->second);
    rec.digests_sent += reports.size();
    DigestBatch batch{it->second, cfg_.node_base + nid, std::move(reports),
                      ++rec.seq};
    emit(it->second, std::move(batch));
  };
  tracker_.on_run_complete = [this](std::size_t run) {
    const auto it = ctl_of_.find(run);
    if (it == ctl_of_.end()) return;
    const std::uint64_t ctl = it->second;
    const RunRecord& rec = runs_.at(ctl);
    if (rec.probe) {
      emit(ctl, ProbeReply{*rec.probe, ctl, tracker_.run_output_path(run)});
      return;
    }
    RunComplete rc;
    rc.run = ctl;
    rc.output_path = tracker_.run_output_path(run);
    rc.hdfs_write = tracker_.run_metrics(run).hdfs_write;
    rc.digest_reports = rec.digests_sent;
    emit(ctl, std::move(rc));
  };
  tracker_.on_nodes_added = [this](cluster::NodeId first, std::size_t count) {
    transport_.to_control(NodeAnnounce{cfg_.node_base + first, count,
                                       cfg_.cloud, cfg_.price_milli});
  };
  tracker_.on_node_drained = [this](cluster::NodeId nid) {
    transport_.to_control(NodeDrained{cfg_.node_base + nid});
  };
  tracker_.on_node_readmitted = [this](cluster::NodeId nid) {
    transport_.to_control(NodeReadmitted{cfg_.node_base + nid});
  };

  // Announce the initial cluster; the transport buffers this until the
  // control tier binds its handler.
  transport_.to_control(NodeAnnounce{cfg_.node_base,
                                     tracker_.resources().size(), cfg_.cloud,
                                     cfg_.price_milli});
}

bool ComputationService::local_node(std::uint64_t g) const {
  return g >= cfg_.node_base &&
         g - cfg_.node_base < tracker_.resources().size();
}

std::set<cluster::NodeId> ComputationService::to_local(
    const std::vector<std::uint64_t>& g) const {
  std::set<cluster::NodeId> local;
  for (std::uint64_t id : g) {
    if (local_node(id)) {
      local.insert(static_cast<cluster::NodeId>(id - cfg_.node_base));
    }
  }
  return local;
}

void ComputationService::emit(std::uint64_t ctl_run, Message event) {
  runs_.at(ctl_run).history.push_back(event);
  transport_.to_control(std::move(event));
}

void ComputationService::replay_history(std::uint64_t ctl_run) {
  const auto it = runs_.find(ctl_run);
  if (it == runs_.end()) return;
  // Copy: re-delivery runs controller code inline on the loopback
  // transport, which may submit further runs and grow histories.
  const std::vector<Message> snapshot = it->second.history;
  for (const Message& ev : snapshot) transport_.to_control(ev);
}

void ComputationService::on_submit(const SubmitRun& m) {
  if (m.cloud != cfg_.cloud) {
    // A run addressed to another cloud must never execute here — not
    // even a duplicate of one we never saw. Checked before the dedupe
    // insert so a misrouted (or maliciously re-addressed) frame leaves
    // no state behind: a failed-over run id stays single-homed in the
    // cloud the controller reassigned it to.
    CBFT_WARN("SubmitRun " << m.run << " addressed to cloud " << m.cloud
                           << " reached cloud " << cfg_.cloud << "; dropped");
    return;
  }
  if (!runs_.try_emplace(m.run).second) {
    // Duplicate (transport duplication or crash-recovery resync): the
    // command already executed. Re-emit the run's retained events so
    // anything lost in a crash window reaches the control tier again;
    // the mirror drops what it already processed.
    replay_history(m.run);
    return;
  }
  const ProgramRegistry::Program* prog = programs_.find(m.program);
  if (prog == nullptr) {
    CBFT_WARN("SubmitRun " << m.run << " references unknown program "
                           << m.program << "; dropped");
    return;
  }
  if (m.job_index >= prog->dag->jobs.size()) {
    CBFT_WARN("SubmitRun " << m.run << " job index " << m.job_index
                           << " out of range; dropped");
    return;
  }
  // Crossing the trust boundary into the tracker's std::string world is
  // where the (retained) paths get copied out of the frame.
  std::vector<std::string> input_paths;
  input_paths.reserve(m.input_paths.size());
  for (const Text& path : m.input_paths) {
    if (!tracker_.dfs().exists(path.str())) {
      CBFT_WARN("SubmitRun " << m.run << " input missing from DFS: " << path
                             << "; dropped");
      return;
    }
    input_paths.push_back(path.str());
  }
  const mapreduce::MRJobSpec& spec = prog->dag->jobs[m.job_index];
  // Map before submitting: submit dispatches inline and the hooks above
  // need the control id for the events they emit during it.
  ctl_of_[tracker_.next_run_id()] = m.run;
  const std::size_t run = tracker_.submit(
      *prog->plan, spec, m.replica, std::move(input_paths),
      m.output_path.str(), to_local(m.avoid), to_local(m.restrict_to),
      m.max_nodes, m.urgent != 0);
  CBFT_CHECK(ctl_of_.at(run) == m.run);
  runs_.at(m.run).tracker_run = run;
}

void ComputationService::on_probe(const ProbeRequest& m) {
  if (!local_node(m.suspect)) {
    // Probe routed to (or broadcast at) a cloud that does not own the
    // suspect; checked before the dedupe insert so the owning cloud's
    // copy still executes.
    CBFT_WARN("probe " << m.probe << " suspect " << m.suspect
                       << " is not a cloud-" << cfg_.cloud
                       << " node; dropped");
    return;
  }
  if (!runs_.try_emplace(m.run_suspect).second) {
    replay_history(m.run_suspect);
    replay_history(m.run_control);
    return;
  }
  runs_.try_emplace(m.run_control);
  if (!tracker_.dfs().exists(m.input_path.str())) {
    CBFT_WARN("probe " << m.probe << " input missing from DFS: "
                       << m.input_path << "; dropped");
    return;
  }

  // A minimal pass-through data-flow: LOAD -> STORE over the probe
  // input. Any commission fault on the suspect corrupts its copy.
  auto probe = std::make_unique<ProbeJob>();
  probe->plan = std::make_unique<dataflow::LogicalPlan>();
  dataflow::OpNode load;
  load.kind = dataflow::OpKind::kLoad;
  load.alias = "probe";
  load.path = m.input_path.str();
  // Take the schema from the stored relation (arity is what matters).
  {
    const dataflow::Relation& rel = tracker_.dfs().read(m.input_path.str());
    load.schema = rel.schema();
  }
  const dataflow::OpId load_id = probe->plan->add(std::move(load));
  dataflow::OpNode store;
  store.kind = dataflow::OpKind::kStore;
  store.inputs = {load_id};
  store.schema = probe->plan->node(load_id).schema;
  store.path = "probe/" + std::to_string(m.probe) + "/out";
  probe->plan->add(std::move(store));

  mapreduce::CompileOptions copts;
  copts.sid_prefix = "probe#" + std::to_string(m.probe);
  probe->dag = mapreduce::compile(*probe->plan, {}, copts);
  CBFT_CHECK(probe->dag.jobs.size() == 1);
  const mapreduce::MRJobSpec& spec = probe->dag.jobs[0];

  RunRecord& suspect = runs_.at(m.run_suspect);
  RunRecord& control = runs_.at(m.run_control);
  suspect.probe = m.probe;
  control.probe = m.probe;

  // Replica 0 is pinned onto the suspect alone; replica 1 runs on nodes
  // outside the whole suspect set (the honest control).
  ctl_of_[tracker_.next_run_id()] = m.run_suspect;
  suspect.tracker_run = tracker_.submit(
      *probe->plan, spec, 0, {m.input_path.str()}, m.suspect_path.str(),
      /*avoid=*/{},
      /*restrict_to=*/
      {static_cast<cluster::NodeId>(m.suspect - cfg_.node_base)});
  ctl_of_[tracker_.next_run_id()] = m.run_control;
  control.tracker_run = tracker_.submit(
      *probe->plan, spec, 1, {m.input_path.str()}, m.control_path.str(),
      to_local(m.avoid));
  probe_jobs_.push_back(std::move(probe));
}

void ComputationService::handle(const Message& m) {
  std::visit(
      Overload{
          [this](const SubmitRun& c) { on_submit(c); },
          [this](const ProbeRequest& c) { on_probe(c); },
          [this](const CancelRun& c) {
            const auto it = runs_.find(c.run);
            if (it != runs_.end() && it->second.tracker_run) {
              tracker_.cancel_run(*it->second.tracker_run);
            }
          },
          [this](const AddNodes& c) {
            // A broadcast or misrouted grow command must only grow the
            // cloud it names.
            if (c.cloud != cfg_.cloud) return;
            // Dedupe by command seq (a duplicated AddNodes must not
            // register the fleet twice) and bound corrupt counts.
            if (c.seq != 0 && !addnode_seqs_.insert(c.seq).second) return;
            if (c.count == 0 || c.count > kMaxAddNodes ||
                c.slots > kMaxSlots) {
              CBFT_WARN("dropping implausible AddNodes command");
              return;
            }
            if (cfg_.node_span != 0 &&
                tracker_.resources().size() + c.count > cfg_.node_span) {
              CBFT_WARN("dropping AddNodes: cloud " << cfg_.cloud
                        << " node-id span exhausted");
              return;
            }
            tracker_.add_nodes(c.count, c.slots);
          },
          [this](const DrainNode& c) {
            if (!local_node(c.node)) return;
            tracker_.drain_node(
                static_cast<cluster::NodeId>(c.node - cfg_.node_base));
          },
          [this](const ReadmitNode& c) {
            if (!local_node(c.node)) return;
            tracker_.readmit_node(
                static_cast<cluster::NodeId>(c.node - cfg_.node_base));
          },
          [](const auto& /*event echoed to the wrong side*/) {
            // Corruption or a confused sender: log and drop, never abort.
            CBFT_WARN("computation service: ignoring wrong-side event");
          },
      },
      m);
}

}  // namespace clusterbft::protocol
