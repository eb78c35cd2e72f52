// The verifier's behaviour over an unreliable control-plane transport
// (§5.4): digests that are merely LATE must not convict anyone, digests
// that are DROPPED make the run look like a silent replica — verifier
// timeout, omission attribution, rerun — and a digest path that never
// heals exhausts the rerun budget and reports failure honestly. In every
// case a verified answer still equals the reference interpreter's.
#include <gtest/gtest.h>

#include "baseline/presets.hpp"
#include "cluster/tracker.hpp"
#include "core/controller.hpp"
#include "dataflow/interpreter.hpp"
#include "dataflow/parser.hpp"
#include "protocol/seam.hpp"
#include "workloads/scripts.hpp"
#include "workloads/twitter.hpp"

namespace clusterbft::core {
namespace {

struct World {
  cluster::EventSim sim;
  mapreduce::Dfs dfs{16384};
  cluster::ExecutionTracker tracker;
  protocol::ChaosSeam seam;
  ClusterBft controller;
  dataflow::Relation edges;

  explicit World(protocol::ChaosConfig cfg,
                 cluster::TrackerConfig tcfg = make_tracker_config())
      : tracker(sim, dfs, tcfg),
        seam(tracker, cfg),
        controller(sim, dfs, seam.transport, seam.programs) {
    workloads::TwitterConfig tw;
    tw.num_edges = 800;
    tw.num_users = 100;
    tw.seed = 7;
    edges = workloads::generate_twitter_edges(tw);
    dfs.write("twitter/edges", edges);
    // Drain the initial NodeAnnounce (it travels the lossy link too) so
    // the control tier's membership mirror is populated before submit.
    sim.run();
  }

  static cluster::TrackerConfig make_tracker_config() {
    cluster::TrackerConfig tcfg;
    tcfg.num_nodes = 12;
    tcfg.seed = 5;
    return tcfg;
  }

  ScriptResult run(const std::string& name) {
    return controller.execute(baseline::cluster_bft(
        workloads::twitter_follower_analysis(), name, /*f=*/1, /*r=*/2,
        /*n=*/1));
  }

  void expect_output_correct(const ScriptResult& res) {
    const auto plan =
        dataflow::parse_script(workloads::twitter_follower_analysis());
    const auto golden = dataflow::interpret(plan, {{"twitter/edges", edges}});
    ASSERT_EQ(res.outputs.at("out/follower_counts").sorted_rows(),
              golden.at("out/follower_counts").sorted_rows());
  }
};

TEST(LossyTransportTest, LateDigestsConvictNobody) {
  // Every DigestBatch arrives 5 simulated seconds late — well inside the
  // verifier timeout. Verification must proceed exactly as if the link
  // were perfect: no reruns, no omission or commission faults, nobody
  // suspected.
  protocol::ChaosConfig cfg;
  cfg.digest_delay_s = 5.0;
  World w(cfg);
  const auto res = w.run("late");
  ASSERT_TRUE(res.verified);
  EXPECT_EQ(res.metrics.waves, 2u);  // the two initial replicas only
  EXPECT_EQ(res.commission_faults_seen, 0u);
  EXPECT_EQ(res.omission_faults_seen, 0u);
  EXPECT_TRUE(res.suspects.empty());
  EXPECT_EQ(w.seam.transport.dropped(), 0u);
  w.expect_output_correct(res);
}

TEST(LossyTransportTest, DroppedDigestsLookLikeSilentReplicasThenRecover) {
  // The digest path is dead until t=500s: runs complete their outputs but
  // the verifier never hears from them, so they time out like silent
  // replicas — omission attribution and reruns with escalating timeouts —
  // until reruns land after the blackout and verification succeeds.
  protocol::ChaosConfig cfg;
  cfg.digest_blackout_until_s = 500.0;
  World w(cfg);
  const auto res = w.run("blackout");
  ASSERT_TRUE(res.verified);
  EXPECT_GT(res.metrics.waves, 2u);  // reruns happened
  EXPECT_GT(res.omission_faults_seen, 0u);
  EXPECT_EQ(res.commission_faults_seen, 0u);  // nobody framed for the outage
  EXPECT_GT(w.seam.transport.dropped(), 0u);
  w.expect_output_correct(res);
}

TEST(LossyTransportTest, PermanentDigestLossExhaustsRerunsHonestly) {
  // Digests never arrive at all. Every wave times out, the rerun budget
  // runs dry, and the controller reports an unverified (but honestly
  // unverified) execution — it must not abort, hang, or claim success.
  protocol::ChaosConfig cfg;
  cfg.digest_drop_prob = 1.0;
  World w(cfg);
  const auto res = w.run("dead");
  EXPECT_FALSE(res.verified);
  EXPECT_GT(res.omission_faults_seen, 0u);
  EXPECT_EQ(res.commission_faults_seen, 0u);
  EXPECT_GT(w.seam.transport.dropped(), 0u);
}

TEST(LossyTransportTest, GeneralLinkLossStillVerifies) {
  // A symmetrically lossy link (1% drop + 5% duplication on every
  // message, both ways) exercises the retries implicit in the
  // timeout->rerun loop: a dropped SubmitRun or RunComplete is
  // indistinguishable from a hung replica and is handled the same way,
  // and duplicated events are absorbed by the control-plane mirror's
  // per-run sequence-number dedup (the old at-most-once digest-path
  // assumption is gone). ClusterBFT still reaches a verified, correct
  // answer. The chaos transport (protocol/chaos.hpp) adds reordering
  // and corruption on top — the full storm lives in chaos_sweep_test.
  protocol::ChaosConfig cfg;
  cfg.link.drop_prob = 0.01;
  cfg.link.dup_prob = 0.05;
  cfg.seed = 11;
  World w(cfg);
  const auto res = w.run("noisy");
  ASSERT_TRUE(res.verified);
  EXPECT_EQ(res.commission_faults_seen, 0u);
  EXPECT_GT(w.seam.transport.duplicated(), 0u);
  w.expect_output_correct(res);
}

}  // namespace
}  // namespace clusterbft::core
