// ControlPlane: the control tier's only window onto the computation tier.
//
// It owns the control side of the protocol seam: it assigns run ids,
// sends commands (SubmitRun, ProbeRequest, CancelRun, AddNodes,
// DrainNode, ReadmitNode) and *mirrors* the computation tier's
// observable state — run completion, output paths, per-run metrics, run
// node sets and cluster membership — from the event messages streaming
// back. The controller never touches the execution tracker; everything
// it used to read from tracker state it now reads from this mirror,
// which is kept bit-identical under the loopback transport because
// messages arrive in exactly the order the tracker's hooks fired.
//
// This mirror is the only suspicion ledger (§4.1, s = faults / jobs):
// jobs come from NodeStatus, faults from the controller's attribution;
// the computation tier only sees the DrainNode of an eviction.
//
// Completion gating: a run is complete only once its RunComplete arrived
// AND the mirror saw as many digest reports as the run claims to have
// emitted. Over a lossy transport this makes a run with dropped digests
// indistinguishable from a silent replica — the §5.4 timeout/rerun path
// engages instead of a false verification on partial digest evidence —
// and it keeps reordered digests from reaching the verifier after the
// run was already declared complete.
//
// Idempotence: every handler is safe under duplicated or reordered
// delivery — set-semantics membership/status updates, completion guards,
// and exact duplicate suppression of the accumulating events (Heartbeat,
// DigestBatch) via their per-run sequence numbers. Malformed or
// wrong-side messages are logged and dropped, never trusted: the
// computation tier is untrusted, so nothing it sends may abort the
// control tier or drive unbounded allocation. That includes a
// NodeDrained/NodeReadmitted naming an id no NodeAnnounce introduced, so
// the excluded set always stays inside the announced membership.
//
// Crash-recovery support (core::Journal): `defer_inbound` buffers every
// inbound message arriving before recovery replay finished;
// `inbound_tap` lets the controller journal each live inbound before it
// is handled (returning false swallows it — the crash model's "message
// lost with the process"); `inject` feeds a journaled message straight
// to the handlers during replay; `mute` suppresses outbound sends while
// replay re-derives commands the computation tier already received;
// `resend` re-ships already-journaled bytes during resync without
// touching the mirror; `detach` unbinds the handler so a crashed
// controller instance stops observing the world.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "protocol/transport.hpp"

namespace clusterbft::protocol {

class ControlPlane {
 public:
  explicit ControlPlane(Transport& transport, bool defer_inbound = false);

  // ---- upcalls into the controller ----
  /// Digest batch from a still-incomplete run, in arrival order.
  std::function<void(const DigestBatch&)> on_digest_batch;
  /// A run completed (RunComplete arrived and all its digests were seen).
  std::function<void(std::size_t run)> on_run_complete;
  /// Journal hook: called with every live inbound message before it is
  /// handled. Return false to swallow the message (crash injection: the
  /// stimulus dies with the process, atomically un-observed).
  std::function<bool(const Message&)> inbound_tap;

  // ---- commands ----
  /// Assigns the run id (returned) and ships the submission.
  std::size_t submit_run(SubmitRun msg);
  /// Assigns ids for both probe runs: {run_suspect, run_control}.
  std::pair<std::size_t, std::size_t> submit_probe(ProbeRequest msg);
  /// Cancel a run (rollback): the computation tier drops its pending
  /// tasks, and the mirror permanently treats the run as not complete —
  /// late DigestBatch/RunComplete events for it are discarded so a
  /// cancelled run can never feed the verifier or serve as a dependency.
  void cancel_run(std::size_t run);
  void add_nodes(std::uint64_t count, std::uint64_t slots = 0,
                 std::uint64_t cloud = 0);
  void drain_node(std::uint64_t node);
  /// Graceful degradation: resume scheduling onto a drained node. Like
  /// draining, the membership mirror moves on the NodeReadmitted echo.
  void readmit_node(std::uint64_t node);

  // ---- recovery plumbing ----
  /// Run id the next submit_run would assign (journaled before the send).
  std::size_t next_run_id() const { return runs_.size(); }
  /// Replay a journaled inbound message through the handlers, bypassing
  /// the tap and the deferred queue.
  void inject(const Message& m) { handle(m); }
  /// While muted, commands mutate the mirror but send nothing — used when
  /// replay re-derives commands the computation tier already received.
  void mute(bool on) { muted_ = on; }
  /// Re-ship an already-journaled command verbatim (resync after
  /// recovery); deliberately does not touch the mirror.
  void resend(const Message& m);
  /// Drain the messages buffered while defer_inbound was active, through
  /// the normal tap/handle path, then deliver live.
  void stop_deferring();
  /// Crash support: hand an inbound message the dying instance failed to
  /// observe back to the transport, where it buffers (the handler was
  /// detached) until the recovered incarnation binds.
  void requeue(const Message& m) { transport_.requeue_control(m); }
  /// Crash: unbind from the transport so this instance stops observing
  /// the world (subsequent deliveries buffer inside the transport until a
  /// recovered instance binds).
  void detach();

  // ---- mirror queries (what the controller used to ask the tracker) ----
  struct RunMetrics {
    double cpu_seconds = 0;
    std::uint64_t file_read = 0;
    std::uint64_t file_write = 0;
    std::uint64_t hdfs_write = 0;
    std::uint64_t digested = 0;
    std::size_t tasks_run = 0;
  };

  bool run_complete(std::size_t run) const;
  /// CancelRun was issued for the run (rollback): it never completes.
  bool run_cancelled(std::size_t run) const;
  std::string run_output_path(std::size_t run) const;
  const RunMetrics& run_metrics(std::size_t run) const;
  const std::set<std::uint64_t>& run_nodes(std::size_t run) const;

  /// Announced nodes (duplicate or overlapping announces count once).
  std::size_t cluster_size() const { return node_cloud_.size(); }
  bool node_excluded(std::uint64_t node) const;
  std::vector<std::uint64_t> excluded_nodes() const;

  // ---- per-cloud membership (learned from NodeAnnounce, wire v5) ----
  /// Number of distinct clouds that announced nodes (a classic
  /// single-cluster deployment reports 1, as cloud 0).
  std::size_t cloud_count() const { return clouds_.size(); }
  /// Announced cloud ids, ascending.
  std::vector<std::uint64_t> cloud_ids() const;
  /// Announced nodes of one cloud (0 for an unknown cloud).
  std::size_t cloud_size(std::uint64_t cloud) const;
  /// Announced-and-not-excluded nodes of one cloud.
  std::size_t healthy_in_cloud(std::uint64_t cloud) const;
  /// Advertised price of one cloud, milli-units per CPU-second.
  std::uint64_t cloud_price(std::uint64_t cloud) const;
  /// Cloud owning a node (kNoCloud when the node was never announced).
  std::uint64_t cloud_of_node(std::uint64_t node) const;
  /// Cloud a run was dispatched to (from its SubmitRun; kNoCloud for
  /// probe runs, which are routed by suspect node instead).
  std::uint64_t run_cloud(std::size_t run) const;

  static constexpr std::uint64_t kNoCloud = ~0ULL;

  // ---- suspicion (§4.1: s = faults / jobs executed, control-tier data) ----
  void record_fault(std::uint64_t node);
  /// s = faults / jobs executed (0 when the node never ran a job).
  double suspicion(std::uint64_t node) const;
  /// Drain every node whose suspicion exceeds `threshold`; returns the
  /// newly drained nodes (nodes with zero executed jobs are never
  /// drained). The mirror marks them excluded on the NodeDrained echo.
  std::vector<std::uint64_t> apply_suspicion_threshold(double threshold);

 private:
  struct RunView {
    bool complete = false;
    bool cancelled = false;           ///< CancelRun issued; output unusable
    bool completion_pending = false;  ///< RunComplete arrived
    bool expected_known = false;
    std::uint64_t digest_reports_expected = 0;
    std::uint64_t digest_reports_seen = 0;
    std::string output_path;
    std::uint64_t hdfs_pending = 0;  ///< credited to metrics on completion
    std::set<std::uint64_t> nodes;
    /// Heartbeat/DigestBatch sequence numbers already applied — exact
    /// duplicate suppression for the accumulating events.
    std::set<std::uint64_t> seen_seqs;
    RunMetrics metrics;
    std::uint64_t cloud = kNoCloud;  ///< placement, from the SubmitRun
  };
  struct NodeView {
    std::uint64_t jobs = 0;
    std::uint64_t faults = 0;
    bool excluded = false;
  };
  struct CloudView {
    std::uint64_t price_milli = 0;
    std::set<std::uint64_t> nodes;  ///< global ids announced for the cloud
  };

  void receive(const Message& m);
  void handle(const Message& m);
  void send(Message m);
  void maybe_complete(std::size_t run);
  /// NodeDrained / NodeReadmitted echo; dropped for unannounced ids.
  void set_excluded(std::uint64_t node, bool excluded);
  NodeView& node(std::uint64_t id);

  Transport& transport_;
  std::vector<RunView> runs_;
  std::vector<NodeView> nodes_;
  /// cloud id -> announced membership; node id -> owning cloud. Node ids
  /// are cloud-strided, so nodes_ is indexed sparsely while node_cloud_
  /// holds exactly the nodes actually announced (not the max id).
  std::map<std::uint64_t, CloudView> clouds_;
  std::map<std::uint64_t, std::uint64_t> node_cloud_;
  std::uint64_t command_seq_ = 0;  ///< AddNodes dedup identity
  bool muted_ = false;
  bool defer_ = false;
  std::vector<Message> deferred_;
};

}  // namespace clusterbft::protocol
