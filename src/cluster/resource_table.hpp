// The resource table kept by the execution handler (§4.2): one tuple
// (nid, #ru, (sid...)) per node — node id, resource units and the
// sub-graphs currently allocated on the node. The paper's fourth field,
// the suspicion level s, is control-tier data: it lives only in
// protocol::ControlPlane, which drains a node here once s crosses the
// threshold. This table just honours the exclusion.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

namespace clusterbft::cluster {

using NodeId = std::size_t;

struct ResourceEntry {
  NodeId nid = 0;
  std::size_t total_ru = 0;   ///< resource units ("task slots")
  std::size_t used_ru = 0;
  std::multiset<std::string> sids;  ///< sids with tasks currently on the node
  /// Dropped from the inclusion list (drained or crashed): gets no tasks.
  bool excluded = false;

  std::size_t free_ru() const { return total_ru - used_ru; }
};

class ResourceTable {
 public:
  /// Register `count` nodes with `ru` resource units each (the
  /// administrator-provided inclusion list).
  void add_nodes(std::size_t count, std::size_t ru);

  std::size_t size() const { return entries_.size(); }
  ResourceEntry& entry(NodeId nid);
  const ResourceEntry& entry(NodeId nid) const;
  const std::vector<ResourceEntry>& entries() const { return entries_; }
  std::vector<ResourceEntry>& entries() { return entries_; }

  void allocate(NodeId nid, const std::string& sid);
  void release(NodeId nid, const std::string& sid);

 private:
  std::vector<ResourceEntry> entries_;
};

}  // namespace clusterbft::cluster
