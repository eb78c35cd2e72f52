// FaultPlan: declarative fault schedule for the chaos harness.
//
// Worker crashes are armed as simulator events (the node dies at an
// exact simulated time, killing its in-flight tasks silently — see
// ExecutionTracker::crash_node). Controller crashes are not part of the
// plan: a harness arms a journal record index with
// core::Journal::set_crash_at before running the controller, because the
// computation tier has no business reaching into the control tier's WAL.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/event_sim.hpp"
#include "cluster/resource_table.hpp"

namespace clusterbft::cluster {

class ExecutionTracker;

struct FaultPlan {
  struct WorkerCrash {
    double at_s = 0;   ///< simulated time of death
    NodeId node = 0;
  };
  std::vector<WorkerCrash> worker_crashes;

  // ---- cloud-level faults (ISSUE 10) -------------------------------
  // Declarative only: whole-cloud faults are partitions of the protocol
  // seam, so they are armed by the multi-cloud seam
  // (protocol::MultiCloudSeam::arm), which owns the per-cloud links —
  // the cluster tier stays free of protocol dependencies. arm() below
  // ignores them (a single-tracker harness has no cloud links).

  /// Whole-cloud outage: from at_s the cloud's link holds traffic in
  /// both directions; duration_s later everything held flushes in order
  /// (the slow-cloud-comes-back-online case). duration_s <= 0 means the
  /// cloud never comes back.
  struct CloudOutage {
    double at_s = 0;
    double duration_s = 0;
    std::size_t cloud = 0;
  };
  std::vector<CloudOutage> cloud_outages;

  /// Cloud-wide latency degradation: messages crossing the cloud's link
  /// during the window are delayed by extra_delay_s each way.
  struct CloudDegrade {
    double at_s = 0;
    double duration_s = 0;
    std::size_t cloud = 0;
    double extra_delay_s = 0;
  };
  std::vector<CloudDegrade> cloud_degrades;

  /// Schedule every worker crash into the simulator. `tracker` is the
  /// one pool of a single-cluster harness; multi-cloud harnesses arm
  /// worker crashes per cloud through the seam instead.
  void arm(EventSim& sim, ExecutionTracker& tracker) const;
};

}  // namespace clusterbft::cluster
