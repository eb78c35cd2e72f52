// Byte pins for the control tier's per-run, per-script and per-node
// bookkeeping. The older pins
// (FrontendTest.MixedStreamServiceMetricsArePinned and
// CheckpointTest.MaterialiseAdoptAndScopedRestartArePinned) never reach
// cross-cloud failover, adaptive escalation, omission attribution,
// degradation or probes; these five scenarios do:
//  (a) spread placement over two clouds with one cloud permanently down;
//  (b) Assurance::kAdaptive with a node whose digests lie;
//  (c) a node that hangs every task (omission_prob = 1);
//  (d) threshold eviction followed by DegradedMode::kReadmit degradation;
//  (e) probe_suspects after (b).
// Each pin fixes every ScriptMetrics field, the verdict, degradation and
// failure reason, the verified fingerprints, the suspects, the probe
// report, the SHA-256 of the journal's encoded records and the SHA-256
// of the audit transcript — and asserts that the counter the scenario
// exists for is non-zero, so the pin cannot silently stop covering it.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baseline/presets.hpp"
#include "cluster/cloud.hpp"
#include "cluster/fault_plan.hpp"
#include "core/controller.hpp"
#include "core/journal.hpp"
#include "crypto/digest.hpp"
#include "crypto/sha256.hpp"
#include "protocol/multicloud.hpp"
#include "protocol/seam.hpp"
#include "workloads/scripts.hpp"
#include "workloads/twitter.hpp"
#include "workloads/weather.hpp"

namespace clusterbft::core {
namespace {

using cluster::AdversaryPolicy;
using cluster::TrackerConfig;

constexpr const char* kWeather = "weather/gsod";
constexpr const char* kTwitter = "twitter/edges";

dataflow::Relation weather_rows(std::size_t stations, std::size_t readings) {
  workloads::WeatherConfig wc;
  wc.num_stations = stations;
  wc.readings_per_station = readings;
  return workloads::generate_weather(wc);
}

dataflow::Relation twitter_rows(std::uint64_t edges) {
  workloads::TwitterConfig tw;
  tw.num_edges = edges;
  tw.num_users = 300;
  return workloads::generate_twitter_edges(tw);
}

std::string journal_digest_hex(const Journal& journal) {
  crypto::Sha256 h;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    const std::vector<std::uint8_t> bytes =
        Journal::encode_record(journal.at(i));
    h.update(bytes.data(), bytes.size());
  }
  return crypto::to_hex(h.finalize());
}

std::string audit_digest_hex(const ClusterBft& controller) {
  return crypto::Digest256::of(controller.audit_log().to_string()).hex();
}

template <class Set>
std::string ids(const Set& nodes) {
  std::string out = "{";
  for (const auto n : nodes) {
    if (out.size() > 1) out += ",";
    out += std::to_string(n);
  }
  return out + "}";
}

/// Every ScriptMetrics field (doubles at full precision), the verdict,
/// degradation, failure reason, fault counts, suspects and a digest over
/// the verified fingerprints by sid.
std::string pinned_line(const ScriptResult& r) {
  const ScriptMetrics& m = r.metrics;
  std::string fps;
  for (const auto& [sid, hex] : r.verified_digest_hex) {
    fps += sid + "=" + hex + "\n";
  }
  char line[640];
  std::snprintf(
      line, sizeof line,
      "verified=%d degraded=%d failure=%s latency=%.17g cpu=%.17g read=%llu "
      "write=%llu hdfs=%llu digested=%llu runs=%zu waves=%zu rollbacks=%zu "
      "reports=%zu hits=%zu ckpts=%zu ckpt_bytes=%llu escalations=%zu "
      "failovers=%zu commission=%zu omission=%zu suspects=%s fps=%s",
      r.verified ? 1 : 0, r.degraded ? 1 : 0, to_string(r.failure),
      m.latency_s, m.cpu_seconds, static_cast<unsigned long long>(m.file_read),
      static_cast<unsigned long long>(m.file_write),
      static_cast<unsigned long long>(m.hdfs_write),
      static_cast<unsigned long long>(m.digested), m.runs, m.waves,
      m.rollbacks, m.digest_reports, m.cache_hits, m.checkpoints,
      static_cast<unsigned long long>(m.checkpoint_bytes), m.escalations,
      m.cloud_failovers, r.commission_faults_seen, r.omission_faults_seen,
      ids(r.suspects).c_str(), crypto::Digest256::of(fps).hex().c_str());
  return line;
}

std::string pinned_probes(const ClusterBft::ProbeReport& p) {
  return "probes=" + std::to_string(p.probes_run) +
         " commission=" + ids(p.confirmed_commission) +
         " omission=" + ids(p.confirmed_omission) +
         " cleared=" + ids(p.cleared);
}

/// One journaled controller over a loopback seam.
struct World {
  cluster::EventSim sim;
  mapreduce::Dfs dfs{16384};
  Journal journal;
  std::unique_ptr<cluster::ExecutionTracker> tracker;
  std::unique_ptr<protocol::LoopbackSeam> seam;
  std::unique_ptr<ClusterBft> controller;

  explicit World(const TrackerConfig& cfg) {
    tracker = std::make_unique<cluster::ExecutionTracker>(sim, dfs, cfg);
    seam = std::make_unique<protocol::LoopbackSeam>(*tracker);
    controller = std::make_unique<ClusterBft>(sim, dfs, seam->transport,
                                              seam->programs, &journal);
  }
};

TEST(ControlPinTest, SpreadFailoverUnderCloudOutageIsPinned) {
  cluster::EventSim sim;
  mapreduce::Dfs dfs(16384);
  dfs.write(kWeather, weather_rows(30, 4));
  cluster::CloudProfile alpha;
  alpha.name = "alpha";
  alpha.seed = 3;
  cluster::CloudProfile beta;
  beta.name = "beta";
  beta.seed = 4;
  cluster::Cloud a(0, sim, dfs, alpha);
  cluster::Cloud b(1, sim, dfs, beta);
  protocol::MultiCloudSeam seam({&a, &b});
  Journal journal;
  ClusterBft controller(sim, dfs, seam.transport, seam.programs, &journal);
  cluster::FaultPlan faults;
  faults.cloud_outages.push_back({0.05, 0 /* never heals */, 1});
  seam.arm(sim, faults);

  ClientRequest req = baseline::cluster_bft(
      workloads::weather_average_analysis(), "spread", 1, 2, 1);
  req.placement = Placement::kSpread;
  req.verifier_timeout_s = 5.0;
  req.max_rerun_waves = 4;
  const ScriptResult res = controller.execute(req);

  ASSERT_TRUE(res.verified);
  EXPECT_GT(res.metrics.cloud_failovers, 0u);
  EXPECT_EQ(pinned_line(res),
            "verified=1 degraded=0 failure=none latency=6.8235115000000004 "
            "cpu=9.2417970000000018 read=16227 write=9531 hdfs=710 "
            "digested=9791 runs=6 waves=3 rollbacks=0 reports=18 hits=0 "
            "ckpts=0 ckpt_bytes=0 escalations=0 failovers=1 commission=0 "
            "omission=1 suspects={} "
            "fps=b345a145843d3a0462d03a9cb013fb7f6ab625e077c3d7e82c49ffce1d83bf18");
  EXPECT_EQ(journal_digest_hex(journal),
            "b5f592971becaf9210855b6d29eedcabf5e85ddc9380fae40a2ed7b47853466f");
  EXPECT_EQ(audit_digest_hex(controller),
            "ebd00f15d970eb0d6c4480bf46171331146b806e2aec50a80a285d0e55413cd0");
}

/// Scenario (b): f+1 = 2 chains under adaptive assurance; node 1 computes
/// honestly but lies in every digest it sends.
ScriptResult run_adaptive_liar(World& w) {
  w.dfs.write(kWeather, weather_rows(150, 10));
  ClientRequest req = baseline::cluster_bft(
      workloads::weather_average_analysis(), "liar", 1, 3, 2);
  req.assurance = Assurance::kAdaptive;
  return w.controller->execute(req);
}

TrackerConfig digest_liar() {
  TrackerConfig cfg;
  cfg.policies[1] = AdversaryPolicy{.commission_prob = 1.0,
                                    .lie_in_digest = true};
  return cfg;
}

TEST(ControlPinTest, AdaptiveDigestLiarIsPinned) {
  World w(digest_liar());
  const ScriptResult res = run_adaptive_liar(w);

  ASSERT_TRUE(res.verified);
  EXPECT_GT(res.metrics.escalations, 0u);
  EXPECT_EQ(pinned_line(res),
            "verified=1 degraded=0 failure=none latency=5.2135735000000007 "
            "cpu=28.967135999999996 read=248729 write=123664 hdfs=5020 "
            "digested=128684 runs=7 waves=3 rollbacks=1 reports=41 hits=0 "
            "ckpts=0 ckpt_bytes=0 escalations=1 failovers=0 commission=2 "
            "omission=0 suspects={1} "
            "fps=4990f0ae4f2be3394fbbb245ac404013ae058aae83a695975e7aa1ecb0727188");
  EXPECT_EQ(journal_digest_hex(w.journal),
            "ee65991cfafabe72ff5b17d56b4ee5212d324789a7116a939926edc71817175f");
  EXPECT_EQ(audit_digest_hex(*w.controller),
            "398ef283c18c2d2a0d6722285c5cf766f5e94184e77fda094ef0fa89ba9cee21");
}

TEST(ControlPinTest, OmissionNodeIsPinned) {
  TrackerConfig cfg;
  cfg.policies[2] = AdversaryPolicy{.omission_prob = 1.0};
  World w(cfg);
  w.dfs.write(kTwitter, twitter_rows(800));
  ClientRequest req = baseline::cluster_bft(
      workloads::twitter_follower_analysis(), "omit", 1, 2, 1);
  req.verifier_timeout_s = 30.0;
  const ScriptResult res = w.controller->execute(req);

  ASSERT_TRUE(res.verified);
  EXPECT_GT(res.omission_faults_seen, 0u);
  EXPECT_EQ(pinned_line(res),
            "verified=1 degraded=0 failure=none latency=31.286425999999999 "
            "cpu=7.0491834999999998 read=35622 write=18780 hdfs=1466 "
            "digested=20636 runs=3 waves=3 rollbacks=0 reports=13 hits=0 "
            "ckpts=0 ckpt_bytes=0 escalations=0 failovers=0 commission=0 "
            "omission=1 suspects={} "
            "fps=91f607e93c1d10c854ff970e7c38afac410c9925f236eb78350f39aaadbae0d3");
  EXPECT_EQ(journal_digest_hex(w.journal),
            "be876ced64f702986c10156bc7f00e089f167885192160c6a5d8f50e3235e85b");
  EXPECT_EQ(audit_digest_hex(*w.controller),
            "ce34924b92bf7ea99c4fefa05f1b002238fe9d2b9492cc7dd089c089998b933c");
}

TEST(ControlPinTest, ThresholdEvictionThenReadmitIsPinned) {
  // Three nodes, one always wrong: the first script convicts it, the
  // threshold evicts every node with a fault, and r = 3 then no longer
  // fits the healthy pool, so the second script re-admits the least
  // suspect nodes and must verify everything it promotes.
  TrackerConfig cfg;
  cfg.num_nodes = 3;
  cfg.seed = 7;
  cfg.policies[1] = AdversaryPolicy{.commission_prob = 1.0};
  World w(cfg);
  w.dfs.write(kWeather, weather_rows(40, 4));
  ClientRequest req = baseline::cluster_bft(
      workloads::weather_average_analysis(), "degrade", 1, 3, 1);
  const ScriptResult first = w.controller->execute(req);
  ASSERT_TRUE(first.verified);
  const std::vector<cluster::NodeId> evicted =
      w.controller->apply_suspicion_threshold(0.0);
  req.degraded_mode = DegradedMode::kReadmit;
  const ScriptResult second = w.controller->execute(req);

  ASSERT_FALSE(evicted.empty());
  EXPECT_TRUE(second.degraded);
  EXPECT_EQ(ids(evicted), "{1}");
  EXPECT_EQ(pinned_line(first),
            "verified=1 degraded=0 failure=none latency=2.7460405000000003 "
            "cpu=13.357698000000003 read=26448 write=13128 hdfs=1428 "
            "digested=13653 runs=6 waves=3 rollbacks=0 reports=27 hits=0 "
            "ckpts=0 ckpt_bytes=0 escalations=0 failovers=0 commission=1 "
            "omission=0 suspects={1} "
            "fps=d3d07a2fa55cd65082df23d46b9b29e4bcf72092a89a1b80323ae6a780dcf3ed");
  EXPECT_EQ(pinned_line(second),
            "verified=1 degraded=1 failure=none latency=2.7460405000000492 "
            "cpu=13.771204500000003 read=26716 write=13424 hdfs=1427 "
            "digested=13639 runs=7 waves=3 rollbacks=1 reports=27 hits=0 "
            "ckpts=0 ckpt_bytes=0 escalations=0 failovers=0 commission=2 "
            "omission=0 suspects={1} "
            "fps=2a503d34511e4b0e7ba3282fc4afa7a1f3db8d83427734182f16f1b817cc1627");
  EXPECT_EQ(journal_digest_hex(w.journal),
            "c6d65b7f26067d60d9e0c9638a5076d0b32e1fb252a9707272fddd1ca981e4bc");
  EXPECT_EQ(audit_digest_hex(*w.controller),
            "0a6e1dc6f5367154eae7addbc6b4d3e0ca70d6008d4301492ca598124d96c941");
}

TEST(ControlPinTest, ProbesAfterAdaptiveDigestLiarArePinned) {
  World w(digest_liar());
  const ScriptResult res = run_adaptive_liar(w);
  ASSERT_TRUE(res.verified);
  const ClusterBft::ProbeReport report =
      w.controller->probe_suspects(kWeather);

  EXPECT_GT(report.probes_run, 0u);
  EXPECT_EQ(pinned_probes(report),
            "probes=1 commission={} omission={} cleared={1}");
  EXPECT_EQ(ids(w.controller->fault_analyzer()->suspects()), "{1}");
  EXPECT_EQ(journal_digest_hex(w.journal),
            "9f83e20362cbaf7190c827a10e5c8f422669acd175f559d408a6e60640e3bc52");
  EXPECT_EQ(audit_digest_hex(*w.controller),
            "398ef283c18c2d2a0d6722285c5cf766f5e94184e77fda094ef0fa89ba9cee21");
}

}  // namespace
}  // namespace clusterbft::core
