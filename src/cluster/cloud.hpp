// Multi-cloud deployment (Medusa, arXiv 1511.07185 / ISSUE 10): N
// independent `Cloud`s, each bundling its own node pool, execution
// tracker, fault profile and pricing. Clouds share nothing but the
// event simulator and the DFS (the paper's shared blob store): the
// replica chains the controller spreads across clouds are the only
// coupling, so a whole-cloud outage or a correlated commission fault in
// one cloud cannot touch another cloud's replicas.
//
// Node ids stay LOCAL (0..N-1) inside each tracker — the protocol
// service endpoint translates to/from the global cloud-strided id space
// (`node_base() + local`), which keeps the execution machinery
// byte-identical whether a tracker runs alone or as one cloud of many.
#pragma once

#include <cstdint>
#include <string>

#include "cluster/tracker.hpp"

namespace clusterbft::cluster {

using CloudId = std::size_t;

/// Global node-id stride per cloud: cloud c owns ids
/// [c * kCloudNodeStride, (c+1) * kCloudNodeStride). Also the ceiling on
/// one cloud's pool growth (the service refuses AddNodes past it).
inline constexpr std::uint64_t kCloudNodeStride = 1024;

/// Static per-cloud deployment profile: capacity, price, and the
/// cloud-confined fault model (a correlated commission probability
/// applies to EVERY node of the cloud — the provider-level fault class
/// independent clouds exist to tolerate).
struct CloudProfile {
  std::string name = "cloud";
  std::size_t num_nodes = 10;
  std::size_t slots_per_node = 3;
  std::uint64_t seed = 1;
  /// Advertised price, milli-units per CPU-second (kCheapestFirst sorts
  /// ascending on it).
  std::uint64_t price_milli = 1000;
  /// Correlated commission fault: probability each task on ANY node of
  /// this cloud mis-computes. 0 = honest cloud.
  double commission_prob = 0.0;
  /// Correlated omission fault: probability each task hangs forever.
  double omission_prob = 0.0;
};

/// One independent cloud: a node pool + tracker built from its profile.
class Cloud {
 public:
  Cloud(CloudId id, EventSim& sim, mapreduce::Dfs& dfs, CloudProfile profile);

  CloudId id() const { return id_; }
  const CloudProfile& profile() const { return profile_; }
  std::uint64_t node_base() const { return id_ * kCloudNodeStride; }
  ExecutionTracker& tracker() { return tracker_; }
  const ExecutionTracker& tracker() const { return tracker_; }

 private:
  static TrackerConfig make_config(const CloudProfile& profile);

  CloudId id_;
  CloudProfile profile_;
  ExecutionTracker tracker_;
};

}  // namespace clusterbft::cluster
