#include "core/verified_store.hpp"

namespace clusterbft::core {

const VerifiedStore::Entry* VerifiedStore::lookup(const crypto::Digest256& key,
                                                  Reuse reuse) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  if (reuse == Reuse::kCheckpoint && !it->second.durable) return nullptr;
  return &it->second;
}

void VerifiedStore::adopted(Reuse reuse) {
  if (reuse == Reuse::kCacheHit) {
    ++stats_.cache_hits;
  } else {
    ++stats_.checkpoint_adoptions;
  }
}

void VerifiedStore::insert(const crypto::Digest256& key, Entry entry) {
  const auto it = entries_.find(key);
  if (it != entries_.end() && (it->second.durable || !entry.durable)) return;
  ++stats_.insertions;
  if (entry.durable) ++stats_.durable_writes;
  entries_.insert_or_assign(key, std::move(entry));
}

std::size_t VerifiedStore::invalidate_node(cluster::NodeId node) {
  return std::erase_if(entries_, [node](const auto& kv) {
    return kv.second.contributors.count(node) != 0;
  });
}

}  // namespace clusterbft::core
