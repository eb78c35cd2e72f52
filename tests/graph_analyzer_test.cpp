#include "core/graph_analyzer.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <set>

#include "common/rng.hpp"
#include "dataflow/parser.hpp"
#include "mapreduce/compiler.hpp"
#include "workloads/scripts.hpp"

namespace clusterbft::core {
namespace {

using dataflow::LogicalPlan;
using dataflow::OpId;
using dataflow::OpKind;
using dataflow::parse_script;

/// The Fig. 4 shape: three loads of different sizes feeding filters, two
/// joins funnelling into one store.
LogicalPlan fig4_like() {
  return parse_script(
      "l1 = LOAD 'in1' AS (k:long, a:long);\n"
      "l2 = LOAD 'in2' AS (k:long, b:long);\n"
      "l3 = LOAD 'in3' AS (k:long, c:long);\n"
      "f1 = FILTER l1 BY a > 0;\n"
      "f2 = FILTER l2 BY b > 0;\n"
      "f3 = FILTER l3 BY c > 0;\n"
      "j1 = JOIN f2 BY k, f3 BY k;\n"
      "j2 = JOIN f1 BY k, j1 BY f2::k;\n"
      "STORE j2 INTO 'out';\n");
}

std::map<std::string, std::uint64_t> fig4_sizes() {
  // 10G : 20G : 30G, like the paper's annotations (scaled down).
  return {{"in1", 10ull << 20}, {"in2", 20ull << 20}, {"in3", 30ull << 20}};
}

TEST(InputRatioTest, LoadsSplitTotalInput) {
  const auto plan = fig4_like();
  const auto ir = compute_input_ratios(plan, fig4_sizes());
  EXPECT_NEAR(ir[0], 10.0 / 60.0, 1e-9);
  EXPECT_NEAR(ir[1], 20.0 / 60.0, 1e-9);
  EXPECT_NEAR(ir[2], 30.0 / 60.0, 1e-9);
}

TEST(InputRatioTest, FiltersInheritParentRatio) {
  const auto plan = fig4_like();
  const auto ir = compute_input_ratios(plan, fig4_sizes());
  // Level-1 ratios sum to 1, so each filter's normalised ratio equals its
  // parent's.
  EXPECT_NEAR(ir[3], ir[0], 1e-9);
  EXPECT_NEAR(ir[4], ir[1], 1e-9);
  EXPECT_NEAR(ir[5], ir[2], 1e-9);
}

TEST(InputRatioTest, JoinAccumulatesParents) {
  const auto plan = fig4_like();
  const auto ir = compute_input_ratios(plan, fig4_sizes());
  // j1 merges f2 (.33) and f3 (.5); denominator is the whole level (1.0).
  EXPECT_NEAR(ir[6], (20.0 + 30.0) / 60.0, 1e-9);
  EXPECT_GT(ir[7], ir[6]);  // j2 funnels everything
}

TEST(InputRatioTest, MissingSizesFallBackToDeclared) {
  auto plan = fig4_like();
  for (OpId v : plan.loads()) plan.node(v).declared_input_bytes = 100;
  const auto ir = compute_input_ratios(plan, {});
  EXPECT_NEAR(ir[0], 1.0 / 3.0, 1e-9);
}

TEST(MarkerTest, PicksRequestedNumberOfDistinctPoints) {
  const auto plan = fig4_like();
  const auto ir = compute_input_ratios(plan, fig4_sizes());
  for (std::size_t n : {1u, 2u, 3u}) {
    const auto marked =
        mark_verification_points(plan, ir, n, AdversaryModel::kWeak);
    EXPECT_EQ(marked.size(), n);
    std::set<OpId> unique(marked.begin(), marked.end());
    EXPECT_EQ(unique.size(), n);
  }
}

TEST(MarkerTest, NeverMarksLoadsOrStores) {
  const auto plan = fig4_like();
  const auto ir = compute_input_ratios(plan, fig4_sizes());
  const auto marked =
      mark_verification_points(plan, ir, 100, AdversaryModel::kWeak);
  for (OpId v : marked) {
    EXPECT_NE(plan.node(v).kind, OpKind::kLoad);
    EXPECT_NE(plan.node(v).kind, OpKind::kStore);
  }
}

TEST(MarkerTest, FirstPickIsAMidpointNotTheSink) {
  // The sink-feeding join duplicates the always-verified final output, so
  // the first marked point must sit strictly above it — the "mid point"
  // behaviour the paper's Fig. 4 walkthrough describes.
  const auto plan = fig4_like();
  const auto ir = compute_input_ratios(plan, fig4_sizes());
  const auto marked =
      mark_verification_points(plan, ir, 1, AdversaryModel::kWeak);
  ASSERT_EQ(marked.size(), 1u);
  // Not the sink-adjacent join (j2, too expensive to recompute, and its
  // digest duplicates the final output) and not a top-of-graph filter on
  // the smallest input (f1, too little data flows through it).
  EXPECT_NE(plan.node(marked[0]).alias, "j2");
  EXPECT_NE(plan.node(marked[0]).alias, "f1");
  const auto stores = plan.stores();
  EXPECT_GE(plan.distance(marked[0], stores[0]), 2u);
}

TEST(MarkerTest, StrongAdversaryRestrictsToJobBoundaries) {
  const auto plan = fig4_like();
  const auto ir = compute_input_ratios(plan, fig4_sizes());
  const auto marked =
      mark_verification_points(plan, ir, 100, AdversaryModel::kStrong);
  for (OpId v : marked) {
    EXPECT_TRUE(dataflow::is_blocking(plan.node(v).kind))
        << plan.node(v).to_string();
  }
  // Weak adversary has strictly more candidates (the filters).
  const auto weak =
      mark_verification_points(plan, ir, 100, AdversaryModel::kWeak);
  EXPECT_GT(weak.size(), marked.size());
}

TEST(MarkerTest, SecondPointSpreadsAwayFromFirst) {
  const auto plan = fig4_like();
  const auto ir = compute_input_ratios(plan, fig4_sizes());
  const auto marked =
      mark_verification_points(plan, ir, 2, AdversaryModel::kWeak);
  ASSERT_EQ(marked.size(), 2u);
  // The two points never sit adjacent to each other.
  EXPECT_GE(plan.distance(marked[0], marked[1]), 1u);
}

TEST(AnalyzeTest, AddsFinalOutputPoints) {
  const auto plan = parse_script(workloads::airline_top20_analysis());
  std::map<std::string, std::uint64_t> sizes{{"airline/flights", 1 << 20}};
  ClientRequest req;
  req.n = 2;
  req.records_per_digest = 123;
  const auto vps = analyze(plan, sizes, req);
  // 2 internal + 3 stores.
  EXPECT_EQ(vps.size(), 5u);
  for (const auto& vp : vps) EXPECT_EQ(vp.records_per_digest, 123u);
}

TEST(AnalyzeTest, PurePigHasNoPoints) {
  const auto plan = parse_script(workloads::twitter_follower_analysis());
  ClientRequest req;
  req.n = 0;
  req.verify_final_output = false;
  EXPECT_TRUE(analyze(plan, {{"twitter/edges", 1 << 20}}, req).empty());
}

TEST(AnalyzeTest, NCappedByCandidateCount) {
  const auto plan = parse_script(workloads::twitter_follower_analysis());
  ClientRequest req;
  req.n = 1000;  // "individual" mode asks for everything
  req.verify_final_output = false;
  const auto vps = analyze(plan, {{"twitter/edges", 1 << 20}}, req);
  EXPECT_GT(vps.size(), 0u);
  EXPECT_LT(vps.size(), plan.size());
}

// ---- distance and VP picks against the children()-scan reference ---------

/// Reference edge distance: BFS over the undirected DAG that finds each
/// dequeued vertex's consumers with a full children() scan — the plain
/// formulation LogicalPlan::distance and the VP marker must agree with.
std::size_t reference_distance(const LogicalPlan& plan, OpId a, OpId b) {
  if (a == b) return 0;
  std::vector<std::size_t> dist(plan.size(), plan.size());
  std::deque<OpId> queue{a};
  dist[a] = 0;
  while (!queue.empty()) {
    const OpId v = queue.front();
    queue.pop_front();
    if (v == b) return dist[v];
    auto visit = [&](OpId w) {
      if (dist[w] > dist[v] + 1) {
        dist[w] = dist[v] + 1;
        queue.push_back(w);
      }
    };
    for (OpId in : plan.node(v).inputs) visit(in);
    for (OpId ch : plan.children(v)) visit(ch);
  }
  return plan.size();
}

/// mark_verification_points rebuilt on reference_distance.
std::vector<OpId> reference_marker(const LogicalPlan& plan,
                                   const std::vector<double>& ir,
                                   std::size_t n, AdversaryModel adversary) {
  auto boundary = [&plan](OpId v) {
    if (dataflow::is_blocking(plan.node(v).kind)) return true;
    for (OpId c : plan.children(v)) {
      if (plan.node(c).kind == OpKind::kStore) return true;
    }
    return false;
  };
  std::vector<OpId> marked = plan.stores();
  std::vector<OpId> candidates;
  for (const dataflow::OpNode& node : plan.nodes()) {
    if (node.kind == OpKind::kLoad || node.kind == OpKind::kStore) continue;
    if (adversary == AdversaryModel::kStrong && !boundary(node.id)) continue;
    candidates.push_back(node.id);
  }
  std::vector<OpId> picked;
  for (std::size_t round = 0; round < n && !candidates.empty(); ++round) {
    double max_score = -1;
    std::size_t best_index = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      std::size_t d = plan.size();
      for (OpId m : marked) {
        d = std::min(d, reference_distance(plan, candidates[i], m));
      }
      const double score = ir[candidates[i]] + static_cast<double>(d);
      if (score > max_score) {
        max_score = score;
        best_index = i;
      }
    }
    picked.push_back(candidates[best_index]);
    marked.push_back(candidates[best_index]);
    candidates.erase(candidates.begin() +
                     static_cast<std::ptrdiff_t>(best_index));
  }
  return picked;
}

/// Every vertex pair's distance and every (n, adversary) VP pick equals
/// the reference.
void expect_matches_reference(
    const LogicalPlan& plan,
    const std::map<std::string, std::uint64_t>& sizes,
    const std::string& what) {
  SCOPED_TRACE(what);
  for (OpId a = 0; a < plan.size(); ++a) {
    for (OpId b = 0; b < plan.size(); ++b) {
      ASSERT_EQ(plan.distance(a, b), reference_distance(plan, a, b))
          << a << " -> " << b;
    }
  }
  const auto ir = compute_input_ratios(plan, sizes);
  for (AdversaryModel adv : {AdversaryModel::kWeak, AdversaryModel::kStrong}) {
    for (std::size_t n = 0; n <= 5; ++n) {
      EXPECT_EQ(mark_verification_points(plan, ir, n, adv),
                reference_marker(plan, ir, n, adv))
          << "n=" << n
          << (adv == AdversaryModel::kStrong ? " strong" : " weak");
    }
  }
}

TEST(MarkerReferenceTest, PaperScriptsAndFig4MatchReference) {
  expect_matches_reference(fig4_like(), fig4_sizes(), "fig4");
  expect_matches_reference(parse_script(workloads::twitter_follower_analysis()),
                           {{"twitter/edges", 3u << 20}}, "twitter follower");
  expect_matches_reference(parse_script(workloads::twitter_two_hop_analysis()),
                           {{"twitter/edges", 3u << 20}}, "twitter two-hop");
  expect_matches_reference(parse_script(workloads::airline_top20_analysis()),
                           {{"airline/flights", 5u << 20}}, "airline top-20");
  expect_matches_reference(parse_script(workloads::weather_average_analysis()),
                           {{"weather/gsod", 2u << 20}}, "weather average");
}

/// A random plan shape: 1-3 LOADs, then 4-19 operators, each reading
/// earlier non-STORE vertices. About a third are JOIN / UNION / COGROUP
/// fan-ins, their inputs drawn with replacement so some read one vertex
/// twice (a self-join); STOREs hang off random vertices and the last one.
LogicalPlan random_dag(Rng& rng, std::map<std::string, std::uint64_t>& sizes) {
  static constexpr OpKind kUnary[] = {OpKind::kFilter,   OpKind::kForeach,
                                      OpKind::kGroup,    OpKind::kDistinct,
                                      OpKind::kOrder,    OpKind::kLimit};
  static constexpr OpKind kFanIn[] = {OpKind::kJoin, OpKind::kUnion,
                                      OpKind::kCogroup};
  LogicalPlan plan;
  std::vector<OpId> live;  // vertices a later operator may read
  auto store = [&plan](OpId v) {
    dataflow::OpNode st;
    st.kind = OpKind::kStore;
    st.path = "out" + std::to_string(plan.size());
    st.inputs = {v};
    plan.add(std::move(st));
  };
  const std::size_t loads = 1 + rng.next_below(3);
  for (std::size_t i = 0; i < loads; ++i) {
    dataflow::OpNode n;
    n.kind = OpKind::kLoad;
    n.path = "in" + std::to_string(i);
    sizes[n.path] = 1 + rng.next_below(1u << 20);
    live.push_back(plan.add(std::move(n)));
  }
  const std::size_t ops = 4 + rng.next_below(16);
  for (std::size_t i = 0; i < ops; ++i) {
    dataflow::OpNode n;
    if (rng.chance(0.35)) {
      n.kind = kFanIn[rng.next_below(3)];
      // JOIN and COGROUP are binary; UNION takes 2-3 inputs.
      const std::size_t arity =
          n.kind == OpKind::kUnion ? 2 + rng.next_below(2) : 2;
      for (std::size_t k = 0; k < arity; ++k) {
        n.inputs.push_back(live[rng.next_below(live.size())]);
      }
    } else {
      n.kind = kUnary[rng.next_below(6)];
      n.inputs.push_back(live[rng.next_below(live.size())]);
    }
    live.push_back(plan.add(std::move(n)));
    if (rng.chance(0.15)) store(live.back());
  }
  store(live.back());
  return plan;
}

TEST(MarkerReferenceTest, RandomFanInDagsMatchReference) {
  Rng rng(1709);
  std::map<OpKind, std::size_t> fan_ins;
  std::size_t self_reads = 0;
  for (int i = 0; i < 240; ++i) {
    std::map<std::string, std::uint64_t> sizes;
    const LogicalPlan plan = random_dag(rng, sizes);
    for (const dataflow::OpNode& n : plan.nodes()) {
      if (n.inputs.size() < 2) continue;
      ++fan_ins[n.kind];
      if (std::set<OpId>(n.inputs.begin(), n.inputs.end()).size() <
          n.inputs.size()) {
        ++self_reads;
      }
    }
    expect_matches_reference(plan, sizes, "dag " + std::to_string(i));
  }
  // The sweep must exercise every fan-in kind and repeated inputs.
  EXPECT_GT(fan_ins[OpKind::kJoin], 0u);
  EXPECT_GT(fan_ins[OpKind::kUnion], 0u);
  EXPECT_GT(fan_ins[OpKind::kCogroup], 0u);
  EXPECT_GT(self_reads, 0u);
}

// ---- checkpoint cost model -----------------------------------------------

struct CompiledDag {
  mapreduce::JobDag dag;
  std::vector<bool> gating;
};

CompiledDag compile_fig4(const std::map<std::string, std::uint64_t>& sizes) {
  const auto plan = fig4_like();
  ClientRequest req;
  req.n = 2;
  const auto vps = analyze(plan, sizes, req);
  mapreduce::CompileOptions copts;
  copts.sid_prefix = "ckpt";
  CompiledDag out{mapreduce::compile(plan, vps, copts), {}};
  out.gating.assign(out.dag.jobs.size(), false);
  for (std::size_t j = 0; j < out.dag.jobs.size(); ++j) {
    out.gating[j] = !out.dag.jobs[j].vps.empty() &&
                    !out.dag.jobs[j].is_final_store;
  }
  return out;
}

TEST(CheckpointModelTest, EstimatesPassInputBytesThrough) {
  const auto sizes = fig4_sizes();
  const auto c = compile_fig4(sizes);
  const auto est = estimate_job_output_bytes(c.dag, sizes);
  ASSERT_EQ(est.size(), c.dag.jobs.size());
  std::uint64_t total_in = 0;
  for (const auto& [path, bytes] : sizes) total_in += bytes;
  // Pass-through upper bound: every estimate is positive and no job can
  // exceed the total input volume (the fig4 DAG is a funnel).
  for (std::size_t j = 0; j < est.size(); ++j) {
    EXPECT_GT(est[j], 0u) << "job " << j;
    EXPECT_LE(est[j], total_in) << "job " << j;
  }
  // The final store consumes everything: its estimate is the total.
  for (const mapreduce::MRJobSpec& spec : c.dag.jobs) {
    if (spec.is_final_store) {
      EXPECT_EQ(est[spec.job_index], total_in);
    }
  }
}

TEST(CheckpointModelTest, SelectsOnlyGatingJobsAndIsDeterministic) {
  const auto sizes = fig4_sizes();
  const auto c = compile_fig4(sizes);
  const auto depth = pipeline_depths(c.dag);
  const auto a = select_checkpoints(c.dag, sizes, depth, c.gating, 0.0);
  const auto b = select_checkpoints(c.dag, sizes, depth, c.gating, 0.0);
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.est_bytes, b.est_bytes);
  bool any = false;
  for (std::size_t j = 0; j < a.selected.size(); ++j) {
    if (!a.selected[j]) continue;
    any = true;
    EXPECT_TRUE(c.gating[j]) << "non-gating job " << j << " selected";
  }
  // Even at zero suspicion the 0.25 risk floor beats the 0.1 write cost
  // for mid-chain points, so something is checkpointed.
  EXPECT_TRUE(any);
}

TEST(CheckpointModelTest, HigherSuspicionNeverSelectsLess) {
  const auto sizes = fig4_sizes();
  const auto c = compile_fig4(sizes);
  const auto depth = pipeline_depths(c.dag);
  const auto calm = select_checkpoints(c.dag, sizes, depth, c.gating, 0.0);
  const auto hot = select_checkpoints(c.dag, sizes, depth, c.gating, 1.0);
  for (std::size_t j = 0; j < calm.selected.size(); ++j) {
    if (calm.selected[j]) {
      EXPECT_TRUE(hot.selected[j])
          << "job " << j << " dropped when risk rose";
    }
  }
}

}  // namespace
}  // namespace clusterbft::core
