// The §6.3 fault-isolation study: a simulator mimicking resource
// allocation in a 250-node, 3-slots-per-node Hadoop cluster, feeding the
// Fig. 7 fault analyzer with the node sets of job replicas that return
// commission faults.
//
// Jobs come in three size classes — large (20-30 slots), medium (10-15),
// small (3-5) — mixed by a configurable ratio (the paper's r1 = 6:3:1 and
// r2 = 2:2:1), each with a length in time units. Every job runs with R
// replicas whose node sets never overlap (replica safety); job clusters of
// *different* jobs overlap freely, which is what lets intersections
// triangulate the faulty nodes.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "cluster/resource_table.hpp"
#include "core/fault_analyzer.hpp"

namespace clusterbft::sim {

struct IsolationSimConfig {
  std::size_t num_nodes = 250;
  std::size_t slots_per_node = 3;

  std::size_t f = 1;          ///< truly faulty nodes
  std::size_t replicas = 4;   ///< 4 for f=1, 7 for f=2 (paper's choice)
  double commission_prob = 0.5;

  /// large : medium : small job mix (r1 = {6,3,1}, r2 = {2,2,1}).
  std::size_t ratio_large = 6;
  std::size_t ratio_medium = 3;
  std::size_t ratio_small = 1;

  std::size_t max_completed_jobs = 300;  ///< stop condition
  std::size_t max_time = 2000;

  std::uint64_t seed = 1;
};

/// Counts of suspected (s > 0) nodes by suspicion band at one time step:
/// Low (0, 1/3], Med (1/3, 2/3), High [2/3, 1] — Fig. 12/13's series.
struct SuspicionSnapshot {
  std::size_t time = 0;
  std::size_t low = 0;
  std::size_t med = 0;
  std::size_t high = 0;
  /// |union of the analyzer's disjoint suspect sets| — the quantity whose
  /// spike-and-prune Fig. 13 plots.
  std::size_t analyzer_suspects = 0;
};

struct IsolationSimResult {
  /// Jobs completed when |D| first reached f (Fig. 11's y-axis); empty if
  /// saturation never happened within the run.
  std::optional<std::size_t> jobs_until_saturation;

  std::size_t jobs_completed = 0;
  std::size_t commission_observations = 0;
  std::vector<SuspicionSnapshot> timeline;

  std::set<cluster::NodeId> true_faulty;
  std::set<cluster::NodeId> final_suspects;  ///< union of D at the end

  /// Invariant the property tests assert: every truly faulty node that
  /// ever caused an observed fault stays inside the suspect sets.
  bool suspects_cover_observed_faulty = false;

  /// First time step at which the High band contains exactly the truly
  /// faulty nodes (the paper reports ~Time=50); empty if never.
  std::optional<std::size_t> high_band_exact_time;
};

IsolationSimResult run_isolation_sim(const IsolationSimConfig& cfg);

}  // namespace clusterbft::sim
