// ComputationService: the computation tier's end of the protocol seam.
//
// It is the only code that speaks both protocol messages and the
// execution tracker's native interface: inbound commands are translated
// into tracker calls (resolving program handles through the registry),
// and the tracker's outbound hooks are translated into protocol events.
// Control-tier code (src/core) never includes this header — it lives on
// the computation side of the trust boundary, together with the tracker.
//
// Run-id mapping: run ids are control-assigned, so the service maps each
// control id to the tracker id *before* calling submit (tracker hooks
// fire inline during submission, and their events must already carry the
// control id). Because the control tier is the sole submitter, the two
// id spaces coincide in practice; the mapping keeps the protocol honest
// about which tier owns which identifier.
//
// Everything the service knows about a run is one RunRecord keyed by
// control run id, created when its SubmitRun/ProbeRequest is accepted.
//
// Idempotence & recovery: commands are deduplicated by their natural
// identity (run id for SubmitRun/ProbeRequest, command seq for
// AddNodes; CancelRun/DrainNode/ReadmitNode are naturally idempotent).
// Every per-run outbound event is additionally retained in the run's
// history, stamped with a per-run sequence number; a *duplicate*
// SubmitRun/ProbeRequest re-emits that history verbatim.
// This is what makes controller crash-recovery exact: events that died
// in the crash window are recovered by the recovering controller
// re-sending the (journaled) submission, and the control-plane mirror
// drops the re-deliveries it already processed by sequence number.
// Malformed commands (unknown program, out-of-range indices, missing
// inputs, absurd sizes) are logged and dropped — the transport may
// corrupt frames, so no inbound bytes may abort the service.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "cluster/tracker.hpp"
#include "protocol/registry.hpp"
#include "protocol/transport.hpp"

namespace clusterbft::protocol {

/// Cloud identity of one service endpoint. Node ids on the wire are
/// global (cloud-strided); the service translates at the boundary —
/// outbound events add `node_base`, inbound commands subtract it — so
/// the tracker keeps its local 0..N-1 id space and the execution
/// machinery is byte-identical whether it runs alone or as one cloud of
/// many. The default (cloud 0, base 0) is the classic single-cluster
/// deployment, bit-identical to the pre-multi-cloud wire behaviour.
struct ServiceConfig {
  std::uint64_t cloud = 0;
  std::uint64_t node_base = 0;
  /// Advertised price, milli-units per CPU-second (0 = unpriced).
  std::uint64_t price_milli = 0;
  /// Ceiling on this cloud's node-id span (0 = unbounded). AddNodes that
  /// would grow the pool past it are dropped, so strided global ids of
  /// neighbouring clouds can never collide.
  std::uint64_t node_span = 0;
};

class ComputationService {
 public:
  ComputationService(cluster::ExecutionTracker& tracker, Transport& transport,
                     const ProgramRegistry& programs, ServiceConfig cfg = {});

 private:
  void handle(const Message& m);
  void on_submit(const SubmitRun& m);
  void on_probe(const ProbeRequest& m);
  /// True iff global node id `g` names a node of this cloud's pool.
  bool local_node(std::uint64_t g) const;
  /// Sorted local ids for the in-range subset of global ids (ids naming
  /// other clouds' nodes are simply not constraints on this pool).
  std::set<cluster::NodeId> to_local(const std::vector<std::uint64_t>& g)
      const;
  /// Append to the run's event history and ship it.
  void emit(std::uint64_t ctl_run, Message event);
  /// Re-ship a run's retained events (duplicate-submission recovery).
  void replay_history(std::uint64_t ctl_run);

  struct RunRecord {
    /// Tracker run id, once submitted (CancelRun addresses control ids).
    std::optional<std::size_t> tracker_run;
    /// Probe id, for runs that answer with ProbeReply.
    std::optional<std::uint64_t> probe;
    /// Digest reports forwarded — RunComplete carries the total so the
    /// control tier can detect in-flight digest loss.
    std::uint64_t digests_sent = 0;
    /// Event sequence counter (Heartbeat/DigestBatch share one).
    std::uint64_t seq = 0;
    /// Retained outbound events, re-emitted on duplicate submit.
    std::vector<Message> history;
  };

  cluster::ExecutionTracker& tracker_;
  Transport& transport_;
  const ProgramRegistry& programs_;
  const ServiceConfig cfg_;

  /// tracker run id -> control run id.
  std::map<std::size_t, std::uint64_t> ctl_of_;
  /// Control run id -> record; present once accepted (a duplicated
  /// SubmitRun is answered from it instead of executing again).
  std::map<std::uint64_t, RunRecord> runs_;
  /// AddNodes command seqs already applied (duplicate fleet guard).
  std::set<std::uint64_t> addnode_seqs_;

  /// Probe plans/specs must outlive their runs in the tracker.
  struct ProbeJob {
    std::unique_ptr<dataflow::LogicalPlan> plan;
    mapreduce::JobDag dag;
  };
  std::vector<std::unique_ptr<ProbeJob>> probe_jobs_;
};

}  // namespace clusterbft::protocol
