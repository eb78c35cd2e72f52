#include "core/graph_analyzer.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace clusterbft::core {

using dataflow::LogicalPlan;
using dataflow::OpId;
using dataflow::OpKind;

std::vector<double> compute_input_ratios(
    const LogicalPlan& plan,
    const std::map<std::string, std::uint64_t>& input_sizes) {
  std::vector<double> ir(plan.size(), 0.0);

  double total_input = 0;
  for (OpId v : plan.loads()) {
    const auto it = input_sizes.find(plan.node(v).path);
    const double sz =
        it != input_sizes.end()
            ? static_cast<double>(it->second)
            : static_cast<double>(plan.node(v).declared_input_bytes);
    total_input += sz;
  }

  const std::vector<std::size_t> level = plan.levels();

  // Total ratio per level, filled as we sweep in topological order.
  std::map<std::size_t, double> level_total;

  for (const dataflow::OpNode& n : plan.nodes()) {
    if (n.kind == OpKind::kLoad) {
      const auto it = input_sizes.find(n.path);
      const double sz = it != input_sizes.end()
                            ? static_cast<double>(it->second)
                            : static_cast<double>(n.declared_input_bytes);
      ir[n.id] = total_input > 0 ? sz / total_input : 0.0;
    } else {
      double parent_sum = 0;
      for (OpId p : n.inputs) parent_sum += ir[p];
      const double denom = level_total.count(level[n.id] - 1)
                               ? level_total[level[n.id] - 1]
                               : 0.0;
      ir[n.id] = denom > 0 ? parent_sum / denom : parent_sum;
    }
    level_total[level[n.id]] += ir[n.id];
  }
  return ir;
}

namespace {

std::size_t min_distance_to_marked(const LogicalPlan& plan, OpId v,
                                   const std::vector<OpId>& marked) {
  std::size_t best = plan.size();
  for (OpId m : marked) best = std::min(best, plan.distance(v, m));
  return best;
}

bool is_job_boundary(const LogicalPlan& plan, OpId v) {
  const OpKind k = plan.node(v).kind;
  if (dataflow::is_blocking(k)) return true;
  // The vertex feeding a STORE is materialised as a job output.
  for (OpId c : plan.children(v)) {
    if (plan.node(c).kind == OpKind::kStore) return true;
  }
  return false;
}

}  // namespace

std::vector<OpId> mark_verification_points(
    const LogicalPlan& plan, const std::vector<double>& input_ratios,
    std::size_t n, AdversaryModel adversary) {
  CBFT_CHECK(input_ratios.size() == plan.size());

  // M starts with the sinks: final outputs are always verified.
  std::vector<OpId> marked = plan.stores();

  std::vector<OpId> candidates;
  for (const dataflow::OpNode& node : plan.nodes()) {
    if (node.kind == OpKind::kLoad || node.kind == OpKind::kStore) continue;
    if (adversary == AdversaryModel::kStrong &&
        !is_job_boundary(plan, node.id)) {
      continue;
    }
    candidates.push_back(node.id);
  }

  std::vector<OpId> picked;
  for (std::size_t round = 0; round < n && !candidates.empty(); ++round) {
    double max_score = -1;
    std::size_t best_index = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const OpId v = candidates[i];
      const double score =
          input_ratios[v] +
          static_cast<double>(min_distance_to_marked(plan, v, marked));
      if (score > max_score) {
        max_score = score;
        best_index = i;
      }
    }
    const OpId m = candidates[best_index];
    picked.push_back(m);
    marked.push_back(m);
    candidates.erase(candidates.begin() +
                     static_cast<std::ptrdiff_t>(best_index));
  }
  return picked;
}

std::vector<mapreduce::VerificationPoint> analyze(
    const LogicalPlan& plan,
    const std::map<std::string, std::uint64_t>& input_sizes,
    const ClientRequest& request) {
  std::vector<OpId> internal;
  if (!request.explicit_vp_aliases.empty()) {
    for (const std::string& alias : request.explicit_vp_aliases) {
      // The latest definition of an alias wins, matching the parser.
      std::optional<OpId> found;
      for (const dataflow::OpNode& n : plan.nodes()) {
        if (n.alias == alias) found = n.id;
      }
      CBFT_CHECK_MSG(found.has_value(),
                     "explicit verification point on unknown alias: " + alias);
      internal.push_back(*found);
    }
  } else {
    const std::vector<double> ir = compute_input_ratios(plan, input_sizes);
    internal =
        mark_verification_points(plan, ir, request.n, request.adversary);
  }

  std::vector<mapreduce::VerificationPoint> vps;
  for (OpId v : internal) {
    vps.push_back({v, request.records_per_digest});
  }
  if (request.verify_final_output) {
    for (OpId s : plan.stores()) {
      vps.push_back({s, request.records_per_digest});
    }
  }
  return vps;
}

std::vector<std::uint64_t> estimate_job_output_bytes(
    const mapreduce::JobDag& dag,
    const std::map<std::string, std::uint64_t>& input_sizes) {
  std::map<std::string, std::size_t> producer;  // output path -> job
  for (const mapreduce::MRJobSpec& j : dag.jobs) {
    producer[j.output_path] = j.job_index;
  }
  std::vector<std::uint64_t> est(dag.jobs.size(), 0);
  std::vector<bool> done(dag.jobs.size(), false);
  // Worklist, so the result is independent of job emission order: a job
  // resolves once every dependency branch has.
  bool progress = true;
  while (progress) {
    progress = false;
    for (const mapreduce::MRJobSpec& j : dag.jobs) {
      if (done[j.job_index]) continue;
      std::uint64_t total = 0;
      bool ready = true;
      for (const mapreduce::MapBranch& b : j.branches) {
        const auto dep = producer.find(b.input_path);
        if (dep != producer.end()) {
          if (!done[dep->second]) {
            ready = false;
            break;
          }
          total += est[dep->second];
        } else {
          const auto sz = input_sizes.find(b.input_path);
          if (sz != input_sizes.end()) total += sz->second;
        }
      }
      if (!ready) continue;
      est[j.job_index] = total;
      done[j.job_index] = true;
      progress = true;
    }
  }
  return est;
}

CheckpointPlacement select_checkpoints(
    const mapreduce::JobDag& dag,
    const std::map<std::string, std::uint64_t>& input_sizes,
    const std::vector<std::size_t>& pipeline_depth,
    const std::vector<bool>& gating, double suspicion_prior) {
  CBFT_CHECK(pipeline_depth.size() == dag.jobs.size());
  CBFT_CHECK(gating.size() == dag.jobs.size());
  CheckpointPlacement out;
  out.est_bytes = estimate_job_output_bytes(dag, input_sizes);
  out.selected.assign(dag.jobs.size(), false);

  // Work a rollback past j would redo: j plus its transitive deps (a
  // visited set keeps diamonds from double-counting).
  std::vector<std::uint64_t> upstream(dag.jobs.size(), 0);
  for (const mapreduce::MRJobSpec& j : dag.jobs) {
    std::vector<bool> seen(dag.jobs.size(), false);
    std::vector<std::size_t> stack = {j.job_index};
    while (!stack.empty()) {
      const std::size_t v = stack.back();
      stack.pop_back();
      if (seen[v]) continue;
      seen[v] = true;
      upstream[j.job_index] += out.est_bytes[v];
      for (std::size_t d : dag.jobs[v].deps) stack.push_back(d);
    }
  }

  // Risk prior: a background chance that some downstream wave must rerun
  // even on a so-far-clean cluster, sharply raised once any node carries
  // suspicion. max-folded by the caller, so no float accumulation here.
  const double risk = std::min(1.0, 0.25 + 4.0 * suspicion_prior);
  // Serialising a byte to the DFS is roughly an order of magnitude
  // cheaper than re-deriving it (scan + operator + digest passes; see
  // the cost-model ratios in cluster/tracker.cpp).
  constexpr double kWriteCostFactor = 0.1;

  for (std::size_t j = 0; j < dag.jobs.size(); ++j) {
    if (!gating[j]) continue;
    const double stages =
        pipeline_depth[j] > 0 ? static_cast<double>(pipeline_depth[j] - 1)
                              : 0.0;
    const double net =
        risk * stages * static_cast<double>(upstream[j]) -
        kWriteCostFactor * static_cast<double>(out.est_bytes[j]);
    out.selected[j] = net > 0.0;
  }
  return out;
}

std::vector<std::size_t> pipeline_depths(const mapreduce::JobDag& dag) {
  // Fixpoint over the (acyclic, tiny) dependency relation: every job
  // starts at depth 1; a job's dependency is at least one deeper than the
  // job itself, so a larger depth == a longer chain still ahead.
  std::vector<std::size_t> depth(dag.jobs.size(), 1);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const mapreduce::MRJobSpec& j : dag.jobs) {
      for (std::size_t d : j.deps) {
        if (depth[d] < depth[j.job_index] + 1) {
          depth[d] = depth[j.job_index] + 1;
          changed = true;
        }
      }
    }
  }
  return depth;
}

std::vector<std::uint64_t> placement_order(Placement placement,
                                           std::vector<CloudInfo> clouds) {
  // Candidates are clouds with at least one healthy node; keep id order
  // stable (the mirror hands them over ascending, but don't rely on it).
  clouds.erase(std::remove_if(clouds.begin(), clouds.end(),
                              [](const CloudInfo& c) {
                                return c.healthy_nodes == 0;
                              }),
               clouds.end());
  std::sort(clouds.begin(), clouds.end(),
            [](const CloudInfo& a, const CloudInfo& b) { return a.id < b.id; });
  if (clouds.empty()) return {};
  std::vector<std::uint64_t> order;
  switch (placement) {
    case Placement::kSingleCloud:
      order.push_back(clouds.front().id);
      break;
    case Placement::kSpread:
      for (const CloudInfo& c : clouds) order.push_back(c.id);
      break;
    case Placement::kCheapestFirst:
      std::sort(clouds.begin(), clouds.end(),
                [](const CloudInfo& a, const CloudInfo& b) {
                  if (a.price_milli != b.price_milli) {
                    return a.price_milli < b.price_milli;
                  }
                  return a.id < b.id;
                });
      for (const CloudInfo& c : clouds) order.push_back(c.id);
      break;
  }
  return order;
}

}  // namespace clusterbft::core
