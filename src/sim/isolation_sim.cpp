#include "sim/isolation_sim.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace clusterbft::sim {

using cluster::NodeId;

namespace {

/// Job length in time units, drawn uniformly from [min, max].
constexpr std::int64_t kJobMinLen = 2;
constexpr std::int64_t kJobMaxLen = 6;

struct ActiveJob {
  std::size_t end_time = 0;
  /// One node set per replica; replica sets are pairwise disjoint.
  std::vector<std::set<NodeId>> replica_nodes;
  /// Slots held per (replica, node) — released at completion.
  std::vector<std::vector<std::pair<NodeId, std::size_t>>> held;
};

/// Job size class drawn by ratio weights; returns slots needed.
std::size_t draw_slots(Rng& rng, const IsolationSimConfig& cfg) {
  const std::size_t total =
      cfg.ratio_large + cfg.ratio_medium + cfg.ratio_small;
  const std::uint64_t pick = rng.next_below(total);
  if (pick < cfg.ratio_large) {
    return static_cast<std::size_t>(rng.uniform_int(20, 30));
  }
  if (pick < cfg.ratio_large + cfg.ratio_medium) {
    return static_cast<std::size_t>(rng.uniform_int(10, 15));
  }
  return static_cast<std::size_t>(rng.uniform_int(3, 5));
}

}  // namespace

IsolationSimResult run_isolation_sim(const IsolationSimConfig& cfg) {
  CBFT_CHECK(cfg.f >= 1);
  CBFT_CHECK(cfg.replicas >= 2 * 1 + 1 || cfg.replicas >= cfg.f + 1);

  Rng rng(cfg.seed);
  IsolationSimResult result;

  // Pick the truly faulty nodes.
  std::vector<NodeId> ids(cfg.num_nodes);
  for (std::size_t i = 0; i < cfg.num_nodes; ++i) ids[i] = i;
  rng.shuffle(ids);
  for (std::size_t i = 0; i < cfg.f; ++i) result.true_faulty.insert(ids[i]);

  std::vector<std::size_t> free_slots(cfg.num_nodes, cfg.slots_per_node);
  std::size_t total_free = cfg.num_nodes * cfg.slots_per_node;

  // Suspicion bookkeeping (s = faults / jobs executed).
  std::vector<std::uint64_t> execs(cfg.num_nodes, 0);
  std::vector<std::uint64_t> faults(cfg.num_nodes, 0);

  core::FaultAnalyzer analyzer(cfg.f);
  std::set<NodeId> observed_faulty;  // truly faulty nodes that misbehaved

  std::vector<ActiveJob> active;

  for (std::size_t t = 0; t < cfg.max_time; ++t) {
    // ---- completions ----
    for (std::size_t a = 0; a < active.size();) {
      if (active[a].end_time != t) {
        ++a;
        continue;
      }
      ActiveJob job = std::move(active[a]);
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(a));

      for (std::size_t rep = 0; rep < job.replica_nodes.size(); ++rep) {
        // Every node that served the job executed it.
        for (NodeId n : job.replica_nodes[rep]) ++execs[n];

        // A replica deviates if any truly faulty node it used flips its
        // commission coin for this job.
        bool deviant = false;
        for (NodeId n : job.replica_nodes[rep]) {
          if (result.true_faulty.count(n) && rng.chance(cfg.commission_prob)) {
            deviant = true;
            observed_faulty.insert(n);
          }
        }
        if (deviant) {
          analyzer.observe(job.replica_nodes[rep]);
          ++result.commission_observations;
          // Before |D| = f every node of the deviant cluster is
          // suspicious; afterwards each disjoint set holds exactly one
          // fault, so suspicion only accrues to nodes the analyzer still
          // suspects — this is why the paper's Fig. 12 population stops
          // growing at saturation.
          if (analyzer.saturated()) {
            const auto suspects = analyzer.suspects();
            for (NodeId n : job.replica_nodes[rep]) {
              if (suspects.count(n)) ++faults[n];
            }
          } else {
            for (NodeId n : job.replica_nodes[rep]) ++faults[n];
          }
        }
        // Release the replica's slots.
        for (const auto& [n, cnt] : job.held[rep]) {
          free_slots[n] += cnt;
          total_free += cnt;
        }
      }

      ++result.jobs_completed;
      if (!result.jobs_until_saturation && analyzer.saturated()) {
        result.jobs_until_saturation = result.jobs_completed;
      }
    }

    if (result.jobs_completed >= cfg.max_completed_jobs) break;

    // ---- admissions: keep the cluster busy ----
    for (;;) {
      const std::size_t slots = draw_slots(rng, cfg);
      if (total_free < slots * cfg.replicas) break;

      ActiveJob job;
      job.end_time = t + static_cast<std::size_t>(
                             rng.uniform_int(kJobMinLen, kJobMaxLen));
      bool placed_all = true;
      std::set<NodeId> used_by_job;  // replica-safety: disjoint node sets

      for (std::size_t rep = 0; rep < cfg.replicas && placed_all; ++rep) {
        std::set<NodeId> nodes;
        std::vector<std::pair<NodeId, std::size_t>> held;
        std::size_t need = slots;

        // Visit nodes in a random order; take as many free slots from
        // each as needed. This naturally overlaps different jobs' clusters
        // (nodes serve several jobs at once — §4.2's intersections).
        std::vector<NodeId> order = ids;
        rng.shuffle(order);
        for (NodeId n : order) {
          if (need == 0) break;
          if (used_by_job.count(n)) continue;  // other replica of this job
          if (free_slots[n] == 0) continue;
          const std::size_t take = std::min(free_slots[n], need);
          free_slots[n] -= take;
          total_free -= take;
          need -= take;
          nodes.insert(n);
          held.emplace_back(n, take);
        }
        if (need > 0) {
          // Roll back this replica; the job cannot start now.
          for (const auto& [n, cnt] : held) {
            free_slots[n] += cnt;
            total_free += cnt;
          }
          for (std::size_t r2 = 0; r2 < job.held.size(); ++r2) {
            for (const auto& [n, cnt] : job.held[r2]) {
              free_slots[n] += cnt;
              total_free += cnt;
            }
          }
          placed_all = false;
          break;
        }
        used_by_job.insert(nodes.begin(), nodes.end());
        job.replica_nodes.push_back(std::move(nodes));
        job.held.push_back(std::move(held));
      }
      if (!placed_all) break;
      active.push_back(std::move(job));
    }

    // ---- suspicion snapshot ----
    SuspicionSnapshot snap;
    snap.time = t;
    snap.analyzer_suspects = analyzer.suspects().size();
    bool high_exact = !result.true_faulty.empty();
    std::set<NodeId> high_nodes;
    for (NodeId n = 0; n < cfg.num_nodes; ++n) {
      if (execs[n] == 0 || faults[n] == 0) continue;
      const double s = static_cast<double>(faults[n]) /
                       static_cast<double>(execs[n]);
      if (s >= 2.0 / 3.0) {
        ++snap.high;
        high_nodes.insert(n);
      } else if (s > 1.0 / 3.0) {
        ++snap.med;
      } else {
        ++snap.low;
      }
    }
    if (high_exact && high_nodes == result.true_faulty &&
        !result.high_band_exact_time) {
      result.high_band_exact_time = t;
    }
    result.timeline.push_back(snap);
  }

  result.final_suspects = analyzer.suspects();
  // Coverage property: every faulty node that actually misbehaved must
  // still be suspected, unless stage 1 never saturated (then D may be
  // partial) — in that case check containment in D ∪ O.
  result.suspects_cover_observed_faulty = true;
  for (NodeId n : observed_faulty) {
    bool covered = result.final_suspects.count(n) > 0;
    if (!covered) {
      for (const auto& s : analyzer.overlapping_sets()) {
        if (s.count(n)) {
          covered = true;
          break;
        }
      }
    }
    if (!covered) result.suspects_cover_observed_faulty = false;
  }
  return result;
}

}  // namespace clusterbft::sim
