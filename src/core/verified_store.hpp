// Verified-result store: every sub-graph result the control tier has
// verified and may reuse, shared across sessions and tenants.
//
// Two reuse levers read it. The result cache (ClientRequest::
// use_result_cache; after Yoon & Liu, arXiv 2002.09560: reusing
// already-checked work is where the assurance-vs-cost curve bends)
// adopts a verified sub-graph instead of re-running it. Adaptive
// checkpointing (ClientRequest::adaptive_checkpoints; Chinnathambi &
// Santhanam, arXiv 1802.00951) materialises a verified relation to a
// trusted, run-independent DFS path (`ckpt/<key-hex>`) so restart waves
// and later sessions start from it.
// Both key an entry on the same recursive (logical-plan fingerprint,
// input content digest, r-policy) key, so one entry serves both:
//  * a cache hit adopts any entry whose path still exists;
//  * a checkpoint adopts only a durable entry (a `ckpt/` materialisation)
//    and otherwise writes one.
// Sessions with different switches therefore share entries: a cache-on
// session may adopt a checkpoint a checkpoint-only session wrote.
//
// A key is a pure function of the sub-graph and its inputs, so two
// verified results under one key are identical: the first insert wins,
// except that a durable entry replaces a non-durable one (the durable
// path outlives the run that produced the other).
//
// Every entry records its contributor set — every node whose corruption
// could have influenced the result (the majority runs' fault clusters
// plus the contributors of every verified or adopted dependency).
// Convicting a contributor drops every dependent entry; the conviction
// paths (kSuspicionUpdate, kProbeOutcome) are journaled stimuli, so
// invalidation replays deterministically. Checkpoint bytes stay on the
// DFS (in-flight readers may still hold the path); only the adoptable
// entry goes. The store lives on the controller and is rebuilt
// bit-identically by journal replay — it is never persisted separately.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "cluster/resource_table.hpp"
#include "common/guarded.hpp"
#include "crypto/digest.hpp"

namespace clusterbft::core {

class VerifiedStore {
 public:
  struct Entry {
    /// Fingerprint of the agreed digest vector — the verified evidence an
    /// adoption reproduces instead of re-deriving.
    crypto::Digest256 fingerprint;
    /// DFS path holding the verified relation: one majority replica's
    /// wave-scoped output, or the durable `ckpt/<key-hex>` copy.
    std::string path;
    /// Nodes whose conviction invalidates this entry.
    std::set<cluster::NodeId> contributors;
    /// `path` is a durable checkpoint materialisation.
    bool durable = false;
    /// Size of the durable materialisation (0 when not durable).
    std::uint64_t bytes = 0;
  };

  /// Which lever adopts an entry.
  enum class Reuse { kCacheHit, kCheckpoint };

  struct Stats {
    std::size_t insertions = 0;            ///< entries created or made durable
    std::size_t durable_writes = 0;        ///< durable ones among them
    std::size_t cache_hits = 0;            ///< committed cache adoptions
    std::size_t checkpoint_adoptions = 0;  ///< committed checkpoint adoptions
  };

  /// The entry a `reuse` adoption of `key` may take — any entry for a
  /// cache hit, only a durable one for a checkpoint — or null. The caller
  /// still checks that the path exists.
  const Entry* lookup(const crypto::Digest256& key, Reuse reuse) const
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  /// Count one committed adoption.
  void adopted(Reuse reuse) CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  /// First insert wins, except that a durable entry replaces a
  /// non-durable one.
  void insert(const crypto::Digest256& key, Entry entry)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  /// Drop every entry `node` contributed to; returns how many died.
  std::size_t invalidate_node(cluster::NodeId node)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  const Stats& stats() const
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role) {
    return stats_;
  }
  std::size_t size() const
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role) {
    return entries_.size();
  }

 private:
  std::map<crypto::Digest256, Entry> entries_
      CLUSTERBFT_GUARDED_BY(common::scheduler_thread_role);
  Stats stats_ CLUSTERBFT_GUARDED_BY(common::scheduler_thread_role);
};

}  // namespace clusterbft::core
