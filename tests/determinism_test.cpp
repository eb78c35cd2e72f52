// Whole-system determinism: identical seeds and configuration must yield
// bit-identical results — metrics, outputs, suspects, audit timing. This
// is the foundation replica digest comparison, the benchmarks, and every
// other test stand on.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "baseline/presets.hpp"
#include "cluster/tracker.hpp"
#include "common/rng.hpp"
#include "core/controller.hpp"
#include "protocol/seam.hpp"
#include "core/graph_analyzer.hpp"
#include "crypto/digest.hpp"
#include "dataflow/interpreter.hpp"
#include "dataflow/parser.hpp"
#include "dag_run.hpp"
#include "mapreduce/compiler.hpp"
#include "random_script.hpp"
#include "sim/isolation_sim.hpp"
#include "workloads/scripts.hpp"
#include "workloads/twitter.hpp"

namespace clusterbft {
namespace {

core::ScriptResult run_world(std::uint64_t seed) {
  cluster::EventSim sim;
  mapreduce::Dfs dfs(8192);
  cluster::TrackerConfig cfg;
  cfg.num_nodes = 10;
  cfg.seed = seed;
  cfg.policies[2] = cluster::AdversaryPolicy{.commission_prob = 0.6};
  cluster::ExecutionTracker tracker(sim, dfs, cfg);
  workloads::TwitterConfig tw;
  tw.num_edges = 1000;
  tw.num_users = 150;
  dfs.write("twitter/edges", workloads::generate_twitter_edges(tw));
  protocol::LoopbackSeam seam(tracker);
  core::ClusterBft controller(sim, dfs, seam.transport, seam.programs);
  return controller.execute(baseline::cluster_bft(
      workloads::twitter_follower_analysis(), "det", 1, 2, 1));
}

TEST(DeterminismTest, IdenticalSeedsIdenticalRuns) {
  const auto a = run_world(7);
  const auto b = run_world(7);
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_DOUBLE_EQ(a.metrics.latency_s, b.metrics.latency_s);
  EXPECT_DOUBLE_EQ(a.metrics.cpu_seconds, b.metrics.cpu_seconds);
  EXPECT_EQ(a.metrics.file_read, b.metrics.file_read);
  EXPECT_EQ(a.metrics.hdfs_write, b.metrics.hdfs_write);
  EXPECT_EQ(a.metrics.runs, b.metrics.runs);
  EXPECT_EQ(a.metrics.digest_reports, b.metrics.digest_reports);
  EXPECT_EQ(a.suspects, b.suspects);
  EXPECT_EQ(a.commission_faults_seen, b.commission_faults_seen);
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (const auto& [path, rel] : a.outputs) {
    EXPECT_EQ(rel.rows(), b.outputs.at(path).rows()) << path;
  }
}

TEST(DeterminismTest, DifferentSeedsDifferentSchedules) {
  const auto a = run_world(7);
  const auto b = run_world(8);
  // The data is the same (workload seed fixed) so outputs agree, but the
  // adversary coin flips and thus the cost profile differ.
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  const bool identical_metrics =
      a.metrics.cpu_seconds == b.metrics.cpu_seconds &&
      a.metrics.runs == b.metrics.runs &&
      a.commission_faults_seen == b.commission_faults_seen;
  EXPECT_FALSE(identical_metrics);
}

/// Digest a relation's row stream the way a verification point would:
/// canonical tuple serialisation folded through the chunked digester.
std::vector<crypto::ChunkDigest> digest_relation(
    const dataflow::Relation& rel, std::uint64_t records_per_digest) {
  crypto::ChunkedDigester d(records_per_digest);
  for (const auto& t : rel.rows()) d.add_record(dataflow::serialize_tuple(t));
  return d.finish();
}

/// One full pass for `seed`: random plan, marker-function verification
/// points, MR compilation, DAG execution on the tracker with one honest
/// node. Returns the digest stream plus the interpreter-side digests of
/// every output, and both sides' outputs.
struct DigestPass {
  std::vector<mapreduce::DigestReport> mr_digests;
  std::vector<crypto::ChunkDigest> interp_digests;
  std::map<std::string, dataflow::Relation> mr_outputs;
  std::map<std::string, dataflow::Relation> interp_outputs;
};

DigestPass digest_pass(std::uint64_t seed) {
  Rng rng(seed);
  const dataflow::Relation input = testgen::random_table(rng, 250);
  const std::string script = testgen::random_script(rng);

  const auto plan = dataflow::parse_script(script);
  const auto ratios =
      core::compute_input_ratios(plan, {{"ta", input.byte_size()}});
  const auto marks = core::mark_verification_points(
      plan, ratios, 2, core::AdversaryModel::kWeak);
  std::vector<mapreduce::VerificationPoint> vps;
  for (const dataflow::OpId v : marks) vps.push_back({v, 32});
  const auto dag = mapreduce::compile(plan, vps, {.sid_prefix = "det"});

  DigestPass pass;
  mapreduce::Dfs dfs(2048);
  dfs.write("ta", input);
  auto run = testgen::run_one_node(plan, dag, dfs);
  pass.mr_digests = std::move(run.digests);
  pass.mr_outputs = std::move(run.outputs);

  pass.interp_outputs = dataflow::interpret(plan, {{"ta", input}});
  for (const auto& [path, rel] : pass.interp_outputs) {
    for (auto& cd : digest_relation(rel, 32)) {
      pass.interp_digests.push_back(cd);
    }
  }
  return pass;
}

// The core determinism contract: the same plan executed twice — through
// the reference interpreter and through the MR compiler + task layer —
// must produce bit-identical digests at every verification point. Any
// divergence here would surface as a false commission fault in the
// verifier. Swept over many random plans (ISSUE: >= 20 seeds).
TEST(DeterminismTest, VerificationPointDigestsBitStable) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const DigestPass a = digest_pass(seed);
    const DigestPass b = digest_pass(seed);

    ASSERT_FALSE(a.mr_digests.empty());
    ASSERT_EQ(a.mr_digests.size(), b.mr_digests.size());
    for (std::size_t i = 0; i < a.mr_digests.size(); ++i) {
      EXPECT_EQ(a.mr_digests[i].key, b.mr_digests[i].key)
          << a.mr_digests[i].key.to_string();
      EXPECT_EQ(a.mr_digests[i].digest, b.mr_digests[i].digest)
          << a.mr_digests[i].key.to_string();
      EXPECT_EQ(a.mr_digests[i].record_count, b.mr_digests[i].record_count);
    }

    ASSERT_FALSE(a.interp_digests.empty());
    ASSERT_EQ(a.interp_digests.size(), b.interp_digests.size());
    for (std::size_t i = 0; i < a.interp_digests.size(); ++i) {
      EXPECT_EQ(a.interp_digests[i], b.interp_digests[i]) << "chunk " << i;
    }

    // Both MR runs store the same final rows, and those are the
    // interpreter's rows: the two execution paths agree on the output.
    ASSERT_TRUE(a.mr_outputs.contains("out"));
    ASSERT_TRUE(a.interp_outputs.contains("out"));
    EXPECT_EQ(a.mr_outputs.at("out").sorted_rows(),
              b.mr_outputs.at("out").sorted_rows());
    EXPECT_EQ(a.mr_outputs.at("out").sorted_rows(),
              a.interp_outputs.at("out").sorted_rows());
  }
}

TEST(DeterminismTest, IsolationSimulatorBitStable) {
  sim::IsolationSimConfig cfg;
  cfg.f = 2;
  cfg.replicas = 7;
  cfg.commission_prob = 0.4;
  cfg.seed = 99;
  const auto a = sim::run_isolation_sim(cfg);
  const auto b = sim::run_isolation_sim(cfg);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.final_suspects, b.final_suspects);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].low, b.timeline[i].low);
    EXPECT_EQ(a.timeline[i].high, b.timeline[i].high);
    EXPECT_EQ(a.timeline[i].analyzer_suspects,
              b.timeline[i].analyzer_suspects);
  }
}

}  // namespace
}  // namespace clusterbft
