// Execution-tracker tests: scheduling safety (replica pinning), fault
// injection, metrics accounting, and end-to-end job execution on the
// simulated cluster.
#include "cluster/tracker.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

#include "cluster/event_sim.hpp"
#include "dag_run.hpp"
#include "dataflow/interpreter.hpp"
#include "dataflow/parser.hpp"
#include "mapreduce/compiler.hpp"
#include "workloads/scripts.hpp"
#include "workloads/twitter.hpp"

namespace clusterbft::cluster {
namespace {

using dataflow::Relation;
using mapreduce::JobDag;
using mapreduce::MRJobSpec;
using testgen::chain_inputs;
using testgen::run_chain;

struct Fixture {
  EventSim sim;
  mapreduce::Dfs dfs{8192};
  dataflow::LogicalPlan plan;
  JobDag dag;

  explicit Fixture(const std::string& script,
                   std::vector<mapreduce::VerificationPoint> vps = {}) {
    workloads::TwitterConfig tw;
    tw.num_edges = 2000;
    tw.num_users = 300;
    dfs.write("twitter/edges", workloads::generate_twitter_edges(tw));
    plan = dataflow::parse_script(script);
    mapreduce::CompileOptions opts;
    opts.sid_prefix = "t";
    dag = mapreduce::compile(plan, vps, opts);
  }
};

TrackerConfig small_cluster(std::size_t nodes = 8, std::size_t slots = 3) {
  TrackerConfig cfg;
  cfg.num_nodes = nodes;
  cfg.slots_per_node = slots;
  return cfg;
}

TEST(TrackerTest, SingleJobCompletesAndMatchesInterpreter) {
  Fixture fx(workloads::twitter_follower_analysis());
  ExecutionTracker tracker(fx.sim, fx.dfs, small_cluster());
  const auto runs = run_chain(tracker, fx.plan, fx.dag, 0, "w0/");
  for (std::size_t r : runs) EXPECT_TRUE(tracker.run_complete(r));

  const Relation& got = fx.dfs.read("w0/out/follower_counts");
  const auto golden = dataflow::interpret(
      fx.plan, {{"twitter/edges", fx.dfs.read("twitter/edges")}});
  EXPECT_EQ(got.sorted_rows(),
            golden.at("out/follower_counts").sorted_rows());
}

TEST(TrackerTest, MultiJobChainRunsDepsInOrder) {
  Fixture fx(workloads::twitter_two_hop_analysis());
  ExecutionTracker tracker(fx.sim, fx.dfs, small_cluster(12));
  const auto runs = run_chain(tracker, fx.plan, fx.dag, 0, "w0/");
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_TRUE(tracker.run_complete(runs[1]));
  const auto golden = dataflow::interpret(
      fx.plan, {{"twitter/edges", fx.dfs.read("twitter/edges")}});
  EXPECT_EQ(fx.dfs.read("w0/out/two_hop").sorted_rows(),
            golden.at("out/two_hop").sorted_rows());
}

TEST(TrackerTest, ReplicaPinningNeverMixesReplicasOnANode) {
  Fixture fx(workloads::twitter_follower_analysis());
  // 6 nodes x 2 slots: contention forces the scheduler to interleave the
  // replicas, which is exactly when pinning matters. (Each of the 3
  // replicas needs at least 2 pinnable nodes, so fewer than 6 nodes would
  // legitimately starve one replica.)
  ExecutionTracker tracker(fx.sim, fx.dfs, small_cluster(6, 2));

  const MRJobSpec& spec = fx.dag.jobs[0];
  const auto r0 =
      tracker.submit(fx.plan, spec, 0, chain_inputs(fx.plan, spec, "a/"),
                     "a/" + spec.output_path);
  const auto r1 =
      tracker.submit(fx.plan, spec, 1, chain_inputs(fx.plan, spec, "b/"),
                     "b/" + spec.output_path);
  const auto r2 =
      tracker.submit(fx.plan, spec, 2, chain_inputs(fx.plan, spec, "c/"),
                     "c/" + spec.output_path);
  fx.sim.run();
  EXPECT_TRUE(tracker.run_complete(r0));
  EXPECT_TRUE(tracker.run_complete(r1));
  EXPECT_TRUE(tracker.run_complete(r2));

  // No node may appear in two different replicas' node sets.
  for (std::size_t a : {r0, r1, r2}) {
    for (std::size_t b : {r0, r1, r2}) {
      if (a >= b) continue;
      for (NodeId n : tracker.run_nodes(a)) {
        EXPECT_EQ(tracker.run_nodes(b).count(n), 0u)
            << "node " << n << " served replicas of the same sid";
      }
    }
  }
}

TEST(TrackerTest, ReplicasProduceIdenticalOutputs) {
  Fixture fx(workloads::twitter_follower_analysis());
  ExecutionTracker tracker(fx.sim, fx.dfs, small_cluster(16));
  const MRJobSpec& spec = fx.dag.jobs[0];
  tracker.submit(fx.plan, spec, 0, chain_inputs(fx.plan, spec, "a/"),
                 "a/" + spec.output_path);
  tracker.submit(fx.plan, spec, 1, chain_inputs(fx.plan, spec, "b/"),
                 "b/" + spec.output_path);
  fx.sim.run();
  EXPECT_EQ(fx.dfs.read("a/out/follower_counts").rows(),
            fx.dfs.read("b/out/follower_counts").rows());
}

TEST(TrackerTest, DigestsReportedOncePerTaskAtVerificationPoints) {
  Fixture fx0(workloads::twitter_follower_analysis());
  const auto out_vertex = fx0.dag.jobs[0].output_vertex;
  Fixture fx(workloads::twitter_follower_analysis(), {{out_vertex, 0}});
  ExecutionTracker tracker(fx.sim, fx.dfs, small_cluster());
  std::size_t digest_count = 0;
  tracker.on_digests = [&](std::vector<mapreduce::DigestReport>&& reports,
                           std::size_t, NodeId) {
    for (const mapreduce::DigestReport& r : reports) {
      EXPECT_EQ(r.key.vertex, out_vertex);
      ++digest_count;
    }
  };
  run_chain(tracker, fx.plan, fx.dag, 0, "w0/");
  // Reduce-side point: one digest per reduce partition.
  EXPECT_EQ(digest_count, fx.dag.jobs[0].num_reducers);
}

TEST(TrackerTest, OmissionNodeHangsTasksForever) {
  Fixture fx(workloads::twitter_follower_analysis());
  TrackerConfig cfg = small_cluster(2, 2);
  cfg.policies[0] = AdversaryPolicy{.omission_prob = 1.0};
  cfg.policies[1] = AdversaryPolicy{.omission_prob = 1.0};
  ExecutionTracker tracker(fx.sim, fx.dfs, cfg);
  const MRJobSpec& spec = fx.dag.jobs[0];
  const auto run =
      tracker.submit(fx.plan, spec, 0, chain_inputs(fx.plan, spec, "a/"),
                     "a/" + spec.output_path);
  fx.sim.run();
  EXPECT_FALSE(tracker.run_complete(run));
  EXPECT_GT(tracker.stuck_tasks(), 0u);
}

TEST(TrackerTest, CommissionNodeCorruptsOutput) {
  Fixture fx(workloads::twitter_follower_analysis());
  TrackerConfig honest_cfg = small_cluster(1, 3);
  TrackerConfig corrupt_cfg = small_cluster(1, 3);
  corrupt_cfg.policies[0] = AdversaryPolicy{.commission_prob = 1.0};

  EventSim sim1, sim2;
  mapreduce::Dfs dfs1 = fx.dfs;  // copies the input
  mapreduce::Dfs dfs2 = fx.dfs;
  ExecutionTracker honest(sim1, dfs1, honest_cfg);
  ExecutionTracker corrupt(sim2, dfs2, corrupt_cfg);
  const MRJobSpec& spec = fx.dag.jobs[0];
  honest.submit(fx.plan, spec, 0, chain_inputs(fx.plan, spec, "a/"),
                "a/" + spec.output_path);
  corrupt.submit(fx.plan, spec, 0, chain_inputs(fx.plan, spec, "a/"),
                 "a/" + spec.output_path);
  sim1.run();
  sim2.run();
  EXPECT_NE(dfs1.read("a/out/follower_counts").sorted_rows(),
            dfs2.read("a/out/follower_counts").sorted_rows());
}

TEST(TrackerTest, MetricsAreAccountedAndLatencyPositive) {
  Fixture fx(workloads::twitter_follower_analysis());
  ExecutionTracker tracker(fx.sim, fx.dfs, small_cluster());
  const auto runs = run_chain(tracker, fx.plan, fx.dag, 0, "w0/");
  const JobRunMetrics& m = tracker.run_metrics(runs[0]);
  EXPECT_GT(m.finish_time, m.submit_time);
  EXPECT_GT(m.cpu_seconds, 0.0);
  EXPECT_GT(m.file_read, 0u);
  EXPECT_GT(m.file_write, 0u);   // shuffle bytes
  EXPECT_GT(m.hdfs_write, 0u);   // job output
  EXPECT_GT(m.tasks_run, fx.dag.jobs[0].num_reducers);  // maps + reduces
}

TEST(TrackerTest, ExcludedNodesGetNoTasks) {
  Fixture fx(workloads::twitter_follower_analysis());
  ExecutionTracker tracker(fx.sim, fx.dfs, small_cluster(3, 3));
  tracker.drain_node(0);
  const MRJobSpec& spec = fx.dag.jobs[0];
  const auto run =
      tracker.submit(fx.plan, spec, 0, chain_inputs(fx.plan, spec, "a/"),
                     "a/" + spec.output_path);
  fx.sim.run();
  EXPECT_TRUE(tracker.run_complete(run));
  EXPECT_EQ(tracker.run_nodes(run).count(0), 0u);
}

TEST(TrackerTest, FasterNodesFinishEarlier) {
  Fixture fx(workloads::twitter_follower_analysis());
  TrackerConfig slow_cfg = small_cluster(4, 3);
  TrackerConfig fast_cfg = small_cluster(4, 3);
  for (NodeId n = 0; n < 4; ++n) fast_cfg.speeds[n] = 4.0;

  EventSim sim1, sim2;
  mapreduce::Dfs dfs1 = fx.dfs;
  mapreduce::Dfs dfs2 = fx.dfs;
  ExecutionTracker slow(sim1, dfs1, slow_cfg);
  ExecutionTracker fast(sim2, dfs2, fast_cfg);
  const MRJobSpec& spec = fx.dag.jobs[0];
  const auto r1 =
      slow.submit(fx.plan, spec, 0, chain_inputs(fx.plan, spec, "a/"),
                  "a/" + spec.output_path);
  const auto r2 =
      fast.submit(fx.plan, spec, 0, chain_inputs(fx.plan, spec, "a/"),
                  "a/" + spec.output_path);
  sim1.run();
  sim2.run();
  EXPECT_LT(fast.run_metrics(r2).finish_time,
            slow.run_metrics(r1).finish_time);
}

TEST(EventSimTest, OrdersEventsByTimeThenInsertion) {
  EventSim sim;
  std::vector<int> order;
  sim.schedule_at(2.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, [&] { order.push_back(2); });  // same time: FIFO
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(EventSimTest, SchedulingInThePastThrows) {
  EventSim sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), CheckError);
}

TEST(EventSimTest, NestedSchedulingWorks) {
  EventSim sim;
  int fired = 0;
  sim.schedule_after(1.0, [&] {
    ++fired;
    sim.schedule_after(1.0, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

}  // namespace
}  // namespace clusterbft::cluster
