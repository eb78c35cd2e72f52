#include "cluster/cloud.hpp"

#include <utility>

#include "common/check.hpp"

namespace clusterbft::cluster {

TrackerConfig Cloud::make_config(const CloudProfile& profile) {
  TrackerConfig cfg;
  cfg.num_nodes = profile.num_nodes;
  cfg.slots_per_node = profile.slots_per_node;
  cfg.seed = profile.seed;
  if (profile.commission_prob > 0.0 || profile.omission_prob > 0.0) {
    AdversaryPolicy policy;
    policy.commission_prob = profile.commission_prob;
    policy.omission_prob = profile.omission_prob;
    for (NodeId nid = 0; nid < profile.num_nodes; ++nid) {
      cfg.policies[nid] = policy;
    }
  }
  return cfg;
}

Cloud::Cloud(CloudId id, EventSim& sim, mapreduce::Dfs& dfs,
             CloudProfile profile)
    : id_(id),
      profile_(std::move(profile)),
      tracker_(sim, dfs, make_config(profile_)) {
  CBFT_CHECK_MSG(profile_.num_nodes <= kCloudNodeStride,
                 "Cloud: pool larger than the per-cloud node-id stride");
}

}  // namespace clusterbft::cluster
