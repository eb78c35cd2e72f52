// The 1-thread-vs-N-thread determinism property (ISSUE 2 tentpole): the
// parallel task-execution backend must be invisible in every engine
// output. For pool sizes {1, 2, 8} and many seeds, verification-point
// digest streams, final outputs, task metrics, simulated-time accounting
// and scheduler decisions are asserted byte-identical to the sequential
// engine (threads = 0). A replica pair that diverged here would make an
// honest node look Byzantine, so any failure is a correctness bug, not a
// flaky test.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <variant>
#include <vector>

#include "baseline/presets.hpp"
#include "cluster/tracker.hpp"
#include "common/rng.hpp"
#include "core/controller.hpp"
#include "core/graph_analyzer.hpp"
#include "dag_run.hpp"
#include "dataflow/parser.hpp"
#include "mapreduce/compiler.hpp"
#include "protocol/seam.hpp"
#include "protocol/transport.hpp"
#include "random_script.hpp"
#include "workloads/airline.hpp"
#include "workloads/scripts.hpp"
#include "workloads/twitter.hpp"
#include "workloads/weather.hpp"

namespace clusterbft {
namespace {

using cluster::ExecutionTracker;
using cluster::NodeId;
using cluster::TrackerConfig;
using mapreduce::MRJobSpec;

class ParallelExecTest : public ::testing::TestWithParam<std::size_t> {};

/// Exact equality on doubles on purpose: the simulated-time accounting
/// (float addition order included) must not drift with the pool size.
void expect_same_metrics(const cluster::JobRunMetrics& a,
                         const cluster::JobRunMetrics& b) {
  EXPECT_EQ(a.submit_time, b.submit_time);
  EXPECT_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(a.cpu_seconds, b.cpu_seconds);
  EXPECT_EQ(a.file_read, b.file_read);
  EXPECT_EQ(a.file_write, b.file_write);
  EXPECT_EQ(a.hdfs_write, b.hdfs_write);
  EXPECT_EQ(a.digested, b.digested);
  EXPECT_EQ(a.tasks_run, b.tasks_run);
}

// ---------------------------------------------------------------------
// One honest node: random plans, swept seeds, on the tracker helper the
// determinism and parity gates use ("LocalRunner" in the test name is
// this in-process, one-node run).

testgen::OneNodeRun one_node_pass(std::uint64_t seed, std::size_t threads) {
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
  const auto dag = mapreduce::compile(plan, vps, {.sid_prefix = "par"});

  mapreduce::Dfs dfs(2048);
  dfs.write("ta", input);
  return testgen::run_one_node(plan, dag, dfs, threads);
}

TEST_P(ParallelExecTest, LocalRunnerBitIdenticalToSequentialEngine) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed) + ", threads " +
                 std::to_string(GetParam()));
    const testgen::OneNodeRun seq = one_node_pass(seed, 0);
    const testgen::OneNodeRun par = one_node_pass(seed, GetParam());

    ASSERT_FALSE(seq.digests.empty());
    ASSERT_EQ(seq.digests.size(), par.digests.size());
    for (std::size_t i = 0; i < seq.digests.size(); ++i) {
      EXPECT_EQ(seq.digests[i].key, par.digests[i].key)
          << seq.digests[i].key.to_string();
      EXPECT_EQ(seq.digests[i].digest, par.digests[i].digest)
          << seq.digests[i].key.to_string();
      EXPECT_EQ(seq.digests[i].record_count, par.digests[i].record_count);
    }

    // Outputs byte-identical *including row order* — the pooled tracker
    // must reproduce the sequential task order exactly, not merely the
    // same set of rows.
    ASSERT_EQ(seq.outputs.size(), par.outputs.size());
    for (const auto& [path, rel] : seq.outputs) {
      ASSERT_TRUE(par.outputs.contains(path)) << path;
      EXPECT_EQ(rel.rows(), par.outputs.at(path).rows()) << path;
    }

    ASSERT_EQ(seq.metrics.size(), par.metrics.size());
    for (std::size_t j = 0; j < seq.metrics.size(); ++j) {
      SCOPED_TRACE("job " + std::to_string(j));
      expect_same_metrics(seq.metrics[j], par.metrics[j]);
    }
  }
}

// ---------------------------------------------------------------------
// Execution tracker: digest stream, metrics and schedule under an
// adversarial cluster (commission faults on one node, digest lying on
// another — the lying path executes inline even under a pool, and the
// node RNG streams must stay aligned across pool sizes).

struct TrackerPass {
  std::vector<mapreduce::DigestReport> digest_log;
  std::vector<std::size_t> digest_run_ids;
  std::vector<NodeId> digest_nodes;
  std::vector<cluster::JobRunMetrics> metrics;
  std::vector<std::vector<dataflow::Tuple>> outputs;
};

TrackerPass tracker_pass(std::uint64_t seed, std::size_t threads) {
  cluster::EventSim sim;
  mapreduce::Dfs dfs(4096);
  workloads::TwitterConfig tw;
  tw.num_edges = 2000;
  tw.num_users = 300;
  dfs.write("twitter/edges", workloads::generate_twitter_edges(tw));

  const auto plan =
      dataflow::parse_script(workloads::twitter_follower_analysis());
  const auto probe = mapreduce::compile(plan, {}, {.sid_prefix = "p"});
  const std::vector<mapreduce::VerificationPoint> vps{
      {probe.jobs[0].branches[0].source_vertex, 64}};
  const auto dag = mapreduce::compile(plan, vps, {.sid_prefix = "p"});

  TrackerConfig cfg;
  cfg.num_nodes = 10;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.policies[2] = cluster::AdversaryPolicy{.commission_prob = 0.5};
  cfg.policies[4] = cluster::AdversaryPolicy{.commission_prob = 0.5,
                                             .lie_in_digest = true};
  ExecutionTracker tracker(sim, dfs, cfg);

  TrackerPass pass;
  tracker.on_digests = [&pass](std::vector<mapreduce::DigestReport>&& reports,
                               std::size_t run_id, NodeId nid) {
    for (const mapreduce::DigestReport& r : reports) {
      pass.digest_log.push_back(r);
      pass.digest_run_ids.push_back(run_id);
      pass.digest_nodes.push_back(nid);
    }
  };

  std::vector<std::size_t> runs;
  for (std::size_t replica = 0; replica < 2; ++replica) {
    const std::string scope = "w" + std::to_string(replica) + "/";
    const auto chain = testgen::run_chain(tracker, plan, dag, replica, scope);
    runs.insert(runs.end(), chain.begin(), chain.end());
  }
  for (const std::size_t r : runs) {
    pass.metrics.push_back(tracker.run_metrics(r));
    pass.outputs.push_back(dfs.read(tracker.run_output_path(r)).rows());
  }
  return pass;
}

TEST_P(ParallelExecTest, TrackerBitIdenticalToSequentialEngine) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed) + ", threads " +
                 std::to_string(GetParam()));
    const TrackerPass seq = tracker_pass(seed, 0);
    const TrackerPass par = tracker_pass(seed, GetParam());

    ASSERT_FALSE(seq.digest_log.empty());
    ASSERT_EQ(seq.digest_log.size(), par.digest_log.size());
    for (std::size_t i = 0; i < seq.digest_log.size(); ++i) {
      EXPECT_EQ(seq.digest_log[i].key, par.digest_log[i].key);
      EXPECT_EQ(seq.digest_log[i].digest, par.digest_log[i].digest);
      EXPECT_EQ(seq.digest_log[i].replica, par.digest_log[i].replica);
      EXPECT_EQ(seq.digest_log[i].record_count, par.digest_log[i].record_count);
    }
    EXPECT_EQ(seq.digest_run_ids, par.digest_run_ids);
    EXPECT_EQ(seq.digest_nodes, par.digest_nodes);

    ASSERT_EQ(seq.metrics.size(), par.metrics.size());
    for (std::size_t i = 0; i < seq.metrics.size(); ++i) {
      expect_same_metrics(seq.metrics[i], par.metrics[i]);
    }
    EXPECT_EQ(seq.outputs, par.outputs);
  }
}

// ---------------------------------------------------------------------
// Full control tier (job initiator + verifier + fault analyzer) on top
// of the parallel backend: suspicion and verification decisions must not
// depend on the pool size either.

core::ScriptResult controller_pass(std::uint64_t seed, std::size_t threads) {
  cluster::EventSim sim;
  mapreduce::Dfs dfs(8192);
  TrackerConfig cfg;
  cfg.num_nodes = 10;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.policies[2] = cluster::AdversaryPolicy{.commission_prob = 0.6};
  ExecutionTracker tracker(sim, dfs, cfg);
  workloads::TwitterConfig tw;
  tw.num_edges = 1000;
  tw.num_users = 150;
  dfs.write("twitter/edges", workloads::generate_twitter_edges(tw));
  protocol::LoopbackSeam seam(tracker);
  core::ClusterBft controller(sim, dfs, seam.transport, seam.programs);
  return controller.execute(baseline::cluster_bft(
      workloads::twitter_follower_analysis(), "det", 1, 2, 1));
}

TEST_P(ParallelExecTest, ControlTierBitIdenticalToSequentialEngine) {
  const auto seq = controller_pass(7, 0);
  const auto par = controller_pass(7, GetParam());
  EXPECT_EQ(seq.verified, par.verified);
  EXPECT_EQ(seq.metrics.latency_s, par.metrics.latency_s);
  EXPECT_EQ(seq.metrics.cpu_seconds, par.metrics.cpu_seconds);
  EXPECT_EQ(seq.metrics.file_read, par.metrics.file_read);
  EXPECT_EQ(seq.metrics.hdfs_write, par.metrics.hdfs_write);
  EXPECT_EQ(seq.metrics.runs, par.metrics.runs);
  EXPECT_EQ(seq.metrics.digest_reports, par.metrics.digest_reports);
  EXPECT_EQ(seq.suspects, par.suspects);
  EXPECT_EQ(seq.commission_faults_seen, par.commission_faults_seen);
  ASSERT_EQ(seq.outputs.size(), par.outputs.size());
  for (const auto& [path, rel] : seq.outputs) {
    EXPECT_EQ(rel.rows(), par.outputs.at(path).rows()) << path;
  }
}

// ---------------------------------------------------------------------
// Scheduler safety re-check (mirrors TrackerTest.ReplicaPinningNever-
// MixesReplicasOnANode): the pinning invariant must hold when payloads
// run on the pool, since scheduling state is only mutated at submission
// time on the tracker thread.

TEST_P(ParallelExecTest, ReplicaPinningHoldsUnderParallelBackend) {
  cluster::EventSim sim;
  mapreduce::Dfs dfs(8192);
  workloads::TwitterConfig tw;
  tw.num_edges = 2000;
  tw.num_users = 300;
  dfs.write("twitter/edges", workloads::generate_twitter_edges(tw));
  const auto plan =
      dataflow::parse_script(workloads::twitter_follower_analysis());
  const auto dag = mapreduce::compile(plan, {}, {.sid_prefix = "p"});

  TrackerConfig cfg;
  cfg.num_nodes = 6;
  cfg.slots_per_node = 2;
  cfg.threads = GetParam();
  ExecutionTracker tracker(sim, dfs, cfg);

  const MRJobSpec& spec = dag.jobs[0];
  std::vector<std::size_t> runs;
  for (std::size_t replica = 0; replica < 3; ++replica) {
    const std::string scope = std::string(1, static_cast<char>('a' + replica)) + "/";
    std::vector<std::string> inputs;
    for (const auto& b : spec.branches) inputs.push_back(b.input_path);
    runs.push_back(tracker.submit(plan, spec, replica, inputs,
                                  scope + spec.output_path));
  }
  sim.run();
  for (const std::size_t r : runs) EXPECT_TRUE(tracker.run_complete(r));

  for (const std::size_t a : runs) {
    for (const std::size_t b : runs) {
      if (a >= b) continue;
      for (const NodeId n : tracker.run_nodes(a)) {
        EXPECT_EQ(tracker.run_nodes(b).count(n), 0u)
            << "node " << n << " served two replicas of the same sid";
      }
    }
  }
}

// ---------------------------------------------------------------------
// Pipelined DAG execution (ISSUE 4): the pipeline-width knob and the
// offline digest-comparison pool must be invisible in every verification
// artefact — wire digest stream, verified outputs, suspicion ledger,
// fault counts — across widths {1, 2, 8, unbounded} x pool sizes x seeds.
// Only wall-clock / simulated latency may move.

/// Loopback transport that additionally records every digest report
/// crossing into the control tier: the on-the-wire evidence stream the
/// sweep compares across pipeline widths.
class SnoopLoopback final : public protocol::Transport {
 public:
  std::vector<mapreduce::DigestReport> digest_log;

  void to_control(protocol::Message m) override {
    if (const auto* b = std::get_if<protocol::DigestBatch>(&m)) {
      digest_log.insert(digest_log.end(), b->reports.begin(),
                        b->reports.end());
    }
    deliver_control(std::move(m));
  }
  void to_computation(protocol::Message m) override {
    deliver_computation(std::move(m));
  }
};

struct PipelinePass {
  core::ScriptResult result;
  /// Wire digest evidence as an order-free multiset: widths reorder run
  /// completion, so streams are compared as sets of (key, digest,
  /// replica, count) lines, which must match exactly.
  std::multiset<std::string> digests;
  std::vector<core::AuditEvent> rollback_events;
};

PipelinePass pipeline_pass(const std::string& script, std::uint64_t seed,
                           std::size_t width, std::size_t threads,
                           std::size_t verifier_threads, std::size_t replicas,
                           TrackerConfig cfg, double decision_latency_s = 0) {
  cluster::EventSim sim;
  mapreduce::Dfs dfs(8192);
  cfg.seed = seed;
  cfg.threads = threads;
  ExecutionTracker tracker(sim, dfs, cfg);
  workloads::AirlineConfig air;
  air.num_flights = 1200;
  air.num_airports = 25;
  dfs.write("airline/flights", workloads::generate_flights(air));
  workloads::WeatherConfig wx;
  wx.num_stations = 150;
  wx.readings_per_station = 10;
  dfs.write("weather/gsod", workloads::generate_weather(wx));

  // The LoopbackSeam composition, with the snooping transport spliced in.
  SnoopLoopback transport;
  protocol::ProgramRegistry programs;
  protocol::ComputationService service(tracker, transport, programs);
  core::ClusterBft controller(sim, dfs, transport, programs);

  core::ClientRequest req =
      baseline::cluster_bft(script, "pipe", 1, replicas, 2);
  req.pipeline_width = width;
  req.verifier_threads = verifier_threads;
  req.decision_latency_s = decision_latency_s;

  PipelinePass pass;
  pass.result = controller.execute(req);
  for (const mapreduce::DigestReport& r : transport.digest_log) {
    pass.digests.insert(r.key.to_string() + "|" + r.digest.hex() + "|r" +
                        std::to_string(r.replica) + "|" +
                        std::to_string(r.record_count));
  }
  pass.rollback_events =
      controller.audit_log().events_of(core::AuditEvent::Kind::kRollback);
  return pass;
}

void expect_same_decisions(const PipelinePass& a, const PipelinePass& b) {
  EXPECT_EQ(a.result.verified, b.result.verified);
  EXPECT_EQ(a.digests, b.digests);
  EXPECT_EQ(a.result.suspects, b.result.suspects);
  EXPECT_EQ(a.result.commission_faults_seen, b.result.commission_faults_seen);
  EXPECT_EQ(a.result.omission_faults_seen, b.result.omission_faults_seen);
  EXPECT_EQ(a.result.metrics.runs, b.result.metrics.runs);
  EXPECT_EQ(a.result.metrics.waves, b.result.metrics.waves);
  EXPECT_EQ(a.result.metrics.rollbacks, b.result.metrics.rollbacks);
  EXPECT_EQ(a.result.metrics.digest_reports, b.result.metrics.digest_reports);
  EXPECT_EQ(a.result.metrics.cpu_seconds, b.result.metrics.cpu_seconds);
  EXPECT_EQ(a.result.metrics.file_read, b.result.metrics.file_read);
  EXPECT_EQ(a.result.metrics.hdfs_write, b.result.metrics.hdfs_write);
  ASSERT_EQ(a.result.outputs.size(), b.result.outputs.size());
  for (const auto& [path, rel] : a.result.outputs) {
    ASSERT_TRUE(b.result.outputs.contains(path)) << path;
    EXPECT_EQ(rel.rows(), b.result.outputs.at(path).rows()) << path;
  }
}

TEST_P(ParallelExecTest, PipelineWidthInvisibleInDigestsOutputsAndLedger) {
  // The multi-store airline DAG has real job-level parallelism, so the
  // width cap genuinely changes the dispatch schedule. Seeds are offset
  // per pool size so the suite sweeps 18 distinct seeds overall.
  const std::string script = workloads::airline_top20_analysis();
  TrackerConfig cfg;
  cfg.num_nodes = 12;
  const std::uint64_t base = GetParam() * 100;
  for (std::uint64_t seed = base + 1; seed <= base + 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed) + ", threads " +
                 std::to_string(GetParam()));
    // Reference: strictly serial dispatch (width 1), inline execution,
    // inline digest comparison.
    const PipelinePass serial =
        pipeline_pass(script, seed, 1, 0, 0, 2, cfg);
    ASSERT_TRUE(serial.result.verified);
    ASSERT_FALSE(serial.digests.empty());

    PipelinePass widest;
    for (const std::size_t width : {std::size_t{0}, std::size_t{2},
                                    std::size_t{8}}) {
      SCOPED_TRACE("width " + std::to_string(width));
      PipelinePass p = pipeline_pass(script, seed, width, GetParam(),
                                     GetParam(), 2, cfg);
      expect_same_decisions(serial, p);
      if (width == 8) widest = std::move(p);
    }

    // Fixed width across pool sizes is the stronger contract: even the
    // simulated-time accounting must be bit-identical.
    const PipelinePass w8_seq = pipeline_pass(script, seed, 8, 0, 0, 2, cfg);
    expect_same_decisions(w8_seq, widest);
    EXPECT_EQ(w8_seq.result.metrics.latency_s,
              widest.result.metrics.latency_s);

    // Overlapped dispatch must never be slower than the serial schedule.
    EXPECT_GE(serial.result.metrics.latency_s,
              w8_seq.result.metrics.latency_s);
  }
}

TEST_P(ParallelExecTest, LateMismatchRollsBackOnlyTaintedRuns) {
  // Node 0 always corrupts and runs 4x faster than the honest nodes, and
  // the verification decision takes a simulated control-tier agreement
  // round — so the wave node 0 serves materialises its (tainted) outputs
  // and dispatches downstream jobs before the offline comparison can see
  // the mismatch, at every pipeline width (the weather script is a
  // linear two-job chain, so even width 1 dispatches the tainted
  // successor immediately). This is the late-mismatch case targeted
  // rollback exists for.
  const std::string script = workloads::weather_average_analysis();
  const double kDecision = 2.0;
  TrackerConfig honest_cfg;
  honest_cfg.num_nodes = 12;
  const PipelinePass honest = pipeline_pass(script, 5, 0, GetParam(),
                                            GetParam(), 3, honest_cfg,
                                            kDecision);
  ASSERT_TRUE(honest.result.verified);
  EXPECT_EQ(honest.result.metrics.rollbacks, 0u);
  EXPECT_TRUE(honest.rollback_events.empty());

  TrackerConfig cfg;
  cfg.num_nodes = 12;
  cfg.policies[0] = cluster::AdversaryPolicy{.commission_prob = 1.0};
  cfg.speeds[0] = 4.0;
  for (const std::size_t width : {std::size_t{0}, std::size_t{1},
                                  std::size_t{8}}) {
    SCOPED_TRACE("width " + std::to_string(width) + ", threads " +
                 std::to_string(GetParam()));
    const PipelinePass p = pipeline_pass(script, 5, width, GetParam(),
                                         GetParam(), 3, cfg, kDecision);

    // The script still verifies, from the two honest waves.
    EXPECT_TRUE(p.result.verified);
    EXPECT_GE(p.result.commission_faults_seen, 1u);

    // The tainted downstream runs were rolled back and re-dispatched —
    // and only those: no extra wave was needed, so the honest chains
    // were never disturbed.
    EXPECT_GE(p.result.metrics.rollbacks, 1u);
    EXPECT_FALSE(p.rollback_events.empty());
    EXPECT_LT(p.result.metrics.rollbacks, p.result.metrics.runs);
    EXPECT_EQ(p.result.metrics.waves, 3u);

    // Rollback is invisible in the verified outputs: byte-identical to
    // the all-honest cluster.
    ASSERT_EQ(honest.result.outputs.size(), p.result.outputs.size());
    for (const auto& [path, rel] : honest.result.outputs) {
      ASSERT_TRUE(p.result.outputs.contains(path)) << path;
      EXPECT_EQ(rel.rows(), p.result.outputs.at(path).rows()) << path;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Pools, ParallelExecTest,
                         ::testing::Values<std::size_t>(1, 2, 8),
                         [](const auto& param_info) {
                           return "threads" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace clusterbft
