#include "protocol/control_plane.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace clusterbft::protocol {

namespace {
template <class... Ts>
struct Overload : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overload(Ts...) -> Overload<Ts...>;

// Sanity ceiling on node ids accepted from the (untrusted) computation
// tier: a corrupted frame must not drive an unbounded nodes_ resize.
constexpr std::uint64_t kMaxNodeId = 1ULL << 20;
}  // namespace

ControlPlane::ControlPlane(Transport& transport, bool defer_inbound)
    : transport_(transport), defer_(defer_inbound) {
  transport_.bind_control([this](const Message& m) { receive(m); });
}

void ControlPlane::receive(const Message& m) {
  if (defer_) {
    // Recovery in progress: the mirror is being rebuilt by replay, so
    // live events wait their turn. They are re-delivered (through the
    // tap, i.e. journaled) by stop_deferring().
    deferred_.push_back(m);
    return;
  }
  if (inbound_tap && !inbound_tap(m)) return;
  handle(m);
}

void ControlPlane::stop_deferring() {
  defer_ = false;
  // Drain in arrival order through the normal live path; a tap/crash can
  // swallow the remainder mid-drain exactly like live traffic.
  std::vector<Message> pending;
  pending.swap(deferred_);
  for (Message& m : pending) {
    if (defer_) {  // re-entered recovery (not expected, but stay safe)
      deferred_.push_back(std::move(m));
      continue;
    }
    receive(m);
  }
}

void ControlPlane::detach() { transport_.bind_control({}); }

void ControlPlane::send(Message m) {
  if (muted_) return;
  transport_.to_computation(std::move(m));
}

void ControlPlane::resend(const Message& m) { transport_.to_computation(m); }

std::size_t ControlPlane::submit_run(SubmitRun msg) {
  const std::size_t run = runs_.size();
  msg.run = run;
  runs_.emplace_back();
  runs_.back().cloud = msg.cloud;
  send(std::move(msg));
  return run;
}

std::pair<std::size_t, std::size_t> ControlPlane::submit_probe(
    ProbeRequest msg) {
  const std::size_t run_suspect = runs_.size();
  const std::size_t run_control = run_suspect + 1;
  msg.run_suspect = run_suspect;
  msg.run_control = run_control;
  runs_.emplace_back();
  runs_.emplace_back();
  send(std::move(msg));
  return {run_suspect, run_control};
}

void ControlPlane::cancel_run(std::size_t run) {
  CBFT_CHECK(run < runs_.size());
  runs_[run].cancelled = true;
  runs_[run].complete = false;
  send(CancelRun{run});
}

void ControlPlane::add_nodes(std::uint64_t count, std::uint64_t slots,
                             std::uint64_t cloud) {
  send(AddNodes{count, slots, ++command_seq_, cloud});
}

void ControlPlane::drain_node(std::uint64_t nid) { send(DrainNode{nid}); }

void ControlPlane::readmit_node(std::uint64_t nid) { send(ReadmitNode{nid}); }

bool ControlPlane::run_complete(std::size_t run) const {
  CBFT_CHECK(run < runs_.size());
  return runs_[run].complete && !runs_[run].cancelled;
}

bool ControlPlane::run_cancelled(std::size_t run) const {
  CBFT_CHECK(run < runs_.size());
  return runs_[run].cancelled;
}

std::string ControlPlane::run_output_path(std::size_t run) const {
  CBFT_CHECK(run < runs_.size());
  return runs_[run].output_path;
}

const ControlPlane::RunMetrics& ControlPlane::run_metrics(
    std::size_t run) const {
  CBFT_CHECK(run < runs_.size());
  return runs_[run].metrics;
}

const std::set<std::uint64_t>& ControlPlane::run_nodes(std::size_t run) const {
  CBFT_CHECK(run < runs_.size());
  return runs_[run].nodes;
}

bool ControlPlane::node_excluded(std::uint64_t nid) const {
  return nid < nodes_.size() && nodes_[nid].excluded;
}

std::vector<std::uint64_t> ControlPlane::excluded_nodes() const {
  std::vector<std::uint64_t> out;
  for (std::uint64_t nid = 0; nid < nodes_.size(); ++nid) {
    if (nodes_[nid].excluded) out.push_back(nid);
  }
  return out;
}

std::vector<std::uint64_t> ControlPlane::cloud_ids() const {
  std::vector<std::uint64_t> out;
  out.reserve(clouds_.size());
  for (const auto& [cid, view] : clouds_) out.push_back(cid);
  return out;
}

std::size_t ControlPlane::cloud_size(std::uint64_t cloud) const {
  const auto it = clouds_.find(cloud);
  return it == clouds_.end() ? 0 : it->second.nodes.size();
}

std::size_t ControlPlane::healthy_in_cloud(std::uint64_t cloud) const {
  const auto it = clouds_.find(cloud);
  if (it == clouds_.end()) return 0;
  std::size_t healthy = 0;
  for (std::uint64_t nid : it->second.nodes) {
    if (!node_excluded(nid)) ++healthy;
  }
  return healthy;
}

std::uint64_t ControlPlane::cloud_price(std::uint64_t cloud) const {
  const auto it = clouds_.find(cloud);
  return it == clouds_.end() ? 0 : it->second.price_milli;
}

std::uint64_t ControlPlane::cloud_of_node(std::uint64_t node) const {
  const auto it = node_cloud_.find(node);
  return it == node_cloud_.end() ? kNoCloud : it->second;
}

std::uint64_t ControlPlane::run_cloud(std::size_t run) const {
  CBFT_CHECK(run < runs_.size());
  return runs_[run].cloud;
}

void ControlPlane::record_fault(std::uint64_t nid) { ++node(nid).faults; }

double ControlPlane::suspicion(std::uint64_t nid) const {
  if (nid >= nodes_.size() || nodes_[nid].jobs == 0) return 0;
  return static_cast<double>(nodes_[nid].faults) /
         static_cast<double>(nodes_[nid].jobs);
}

std::vector<std::uint64_t> ControlPlane::apply_suspicion_threshold(
    double threshold) {
  // Collect first, drain after: each DrainNode echoes a NodeDrained that
  // mutates nodes_, which must not happen mid-iteration.
  std::vector<std::uint64_t> newly;
  for (std::uint64_t nid = 0; nid < nodes_.size(); ++nid) {
    const NodeView& n = nodes_[nid];
    if (n.excluded || n.jobs == 0) continue;
    if (suspicion(nid) > threshold) newly.push_back(nid);
  }
  for (std::uint64_t nid : newly) drain_node(nid);
  return newly;
}

void ControlPlane::set_excluded(std::uint64_t nid, bool excluded) {
  // Only announced nodes can leave or rejoin the pool: an exclusion
  // outside the membership would make cluster_size() minus exclusions
  // meaningless.
  if (node_cloud_.count(nid) == 0) {
    CBFT_WARN("control plane: dropping membership event for unannounced "
              "node " << nid);
    return;
  }
  node(nid).excluded = excluded;
}

ControlPlane::NodeView& ControlPlane::node(std::uint64_t id) {
  if (id >= nodes_.size()) nodes_.resize(id + 1);
  return nodes_[id];
}

void ControlPlane::maybe_complete(std::size_t run) {
  RunView& r = runs_[run];
  if (r.complete || !r.completion_pending || !r.expected_known) return;
  if (r.digest_reports_seen < r.digest_reports_expected) return;
  r.complete = true;
  r.metrics.hdfs_write += r.hdfs_pending;
  r.hdfs_pending = 0;
  if (on_run_complete) on_run_complete(run);
}

void ControlPlane::handle(const Message& m) {
  std::visit(
      Overload{
          [this](const NodeAnnounce& e) {
            // Bound what a corrupted announce can make us allocate.
            if (e.count > kMaxNodeId || e.first > kMaxNodeId) {
              CBFT_WARN("control plane: dropping oversized NodeAnnounce");
              return;
            }
            if (e.first + e.count > nodes_.size()) {
              nodes_.resize(e.first + e.count);
            }
            // Set-semantics membership: node_cloud_ holds the nodes
            // actually announced, so a duplicated announce (transport
            // duplication) or cloud-strided sparse id ranges never
            // inflate it. A node's cloud is fixed by its first announce;
            // a conflicting re-announce (confused or byzantine sender)
            // is ignored per node, and a cloud entry only exists once it
            // actually contributed a node (a corrupt announce must not
            // mint phantom clouds the placement policy could pick).
            std::vector<std::uint64_t> fresh;
            for (std::uint64_t nid = e.first; nid < e.first + e.count;
                 ++nid) {
              if (node_cloud_.emplace(nid, e.cloud).second) {
                fresh.push_back(nid);
              }
            }
            if (fresh.empty()) return;
            CloudView& cv = clouds_[e.cloud];
            if (cv.nodes.empty()) cv.price_milli = e.price_milli;
            for (std::uint64_t nid : fresh) cv.nodes.insert(nid);
          },
          [this](const NodeDrained& e) { set_excluded(e.node, true); },
          [this](const NodeReadmitted& e) { set_excluded(e.node, false); },
          [this](const NodeStatus& e) {
            if (e.run >= runs_.size() || e.node >= kMaxNodeId) return;
            // Set-insert guard: duplicated NodeStatus must not inflate
            // the suspicion denominator.
            if (runs_[e.run].nodes.insert(e.node).second) ++node(e.node).jobs;
          },
          [this](const Heartbeat& e) {
            if (e.run >= runs_.size()) return;
            RunView& r = runs_[e.run];
            // Exact duplicate (transport duplication): already applied.
            if (e.seq != 0 && !r.seen_seqs.insert(e.seq).second) return;
            RunMetrics& met = r.metrics;
            met.cpu_seconds += e.cpu_seconds;
            met.file_read += e.file_read;
            met.file_write += e.file_write;
            met.digested += e.digested;
            ++met.tasks_run;
          },
          [this](const DigestBatch& e) {
            if (e.run >= runs_.size()) return;
            RunView& r = runs_[e.run];
            // A batch straggling in after the run was declared complete
            // (duplication, extreme delay) carries no usable evidence —
            // the verifier already decided on this run's record. A
            // cancelled run's digests are tainted, not evidence.
            if (r.complete || r.cancelled) return;
            if (e.seq != 0 && !r.seen_seqs.insert(e.seq).second) return;
            r.digest_reports_seen += e.reports.size();
            if (on_digest_batch) on_digest_batch(e);
            maybe_complete(e.run);
          },
          [this](const RunComplete& e) {
            if (e.run >= runs_.size()) return;
            RunView& r = runs_[e.run];
            if (r.complete || r.completion_pending || r.cancelled) return;
            r.completion_pending = true;
            r.expected_known = true;
            r.digest_reports_expected = e.digest_reports;
            r.output_path = e.output_path.str();  // retained past the frame
            r.hdfs_pending = e.hdfs_write;
            maybe_complete(e.run);
          },
          [this](const ProbeReply& e) {
            if (e.run >= runs_.size()) return;
            RunView& r = runs_[e.run];
            if (r.complete) return;
            r.output_path = e.output_path.str();  // retained past the frame
            r.complete = true;
          },
          [](const auto& /*command echoed to the wrong side*/) {
            // Corruption or a confused/byzantine sender; never trust it
            // enough to abort over.
            CBFT_WARN("control plane: ignoring wrong-side command");
          },
      },
      m);
}

}  // namespace clusterbft::protocol
