#include "cluster/resource_table.hpp"

#include "common/check.hpp"

namespace clusterbft::cluster {

void ResourceTable::add_nodes(std::size_t count, std::size_t ru) {
  for (std::size_t i = 0; i < count; ++i) {
    ResourceEntry e;
    e.nid = entries_.size();
    e.total_ru = ru;
    entries_.push_back(std::move(e));
  }
}

ResourceEntry& ResourceTable::entry(NodeId nid) {
  CBFT_CHECK(nid < entries_.size());
  return entries_[nid];
}

const ResourceEntry& ResourceTable::entry(NodeId nid) const {
  CBFT_CHECK(nid < entries_.size());
  return entries_[nid];
}

void ResourceTable::allocate(NodeId nid, const std::string& sid) {
  ResourceEntry& e = entry(nid);
  CBFT_CHECK_MSG(e.used_ru < e.total_ru, "node has no free resource units");
  ++e.used_ru;
  e.sids.insert(sid);
}

void ResourceTable::release(NodeId nid, const std::string& sid) {
  ResourceEntry& e = entry(nid);
  CBFT_CHECK(e.used_ru > 0);
  --e.used_ru;
  auto it = e.sids.find(sid);
  CBFT_CHECK_MSG(it != e.sids.end(), "releasing a sid not on the node");
  e.sids.erase(it);
}

}  // namespace clusterbft::cluster
