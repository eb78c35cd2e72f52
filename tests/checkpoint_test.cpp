// Verified-result store, adaptive checkpointing + dynamic replication
// degree.
//
// Covers the store in isolation (first insert wins, a durable entry
// replaces a non-durable one, which entries each lever may adopt,
// conviction invalidation) and the controller integration: the cost
// model materialises verified mid-chain relations, later sessions adopt
// them — also across the cache and checkpoint switches — scoped restart
// waves re-execute only the unverified ancestor closure, and adaptive
// assurance launches f+1 chains and escalates only on fault evidence —
// with every verified output bit-identical to the reference interpreter.
#include "core/verified_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "baseline/presets.hpp"
#include "core/controller.hpp"
#include "core/journal.hpp"
#include "crypto/sha256.hpp"
#include "dataflow/interpreter.hpp"
#include "dataflow/parser.hpp"
#include "protocol/seam.hpp"
#include "workloads/airline.hpp"
#include "workloads/scripts.hpp"
#include "workloads/twitter.hpp"
#include "workloads/weather.hpp"

namespace clusterbft::core {
namespace {

using cluster::AdversaryPolicy;
using cluster::EventSim;
using cluster::ExecutionTracker;
using cluster::TrackerConfig;
using dataflow::Relation;

struct World {
  EventSim sim;
  mapreduce::Dfs dfs{16384};
  std::unique_ptr<ExecutionTracker> tracker;
  std::unique_ptr<protocol::LoopbackSeam> seam;
  std::unique_ptr<ClusterBft> controller;
  std::map<std::string, Relation> inputs;

  explicit World(TrackerConfig cfg = {}, Journal* journal = nullptr) {
    tracker = std::make_unique<ExecutionTracker>(sim, dfs, cfg);
    seam = std::make_unique<protocol::LoopbackSeam>(*tracker);
    controller = std::make_unique<ClusterBft>(sim, dfs, seam->transport,
                                              seam->programs, journal);
  }

  void load_weather() {
    workloads::WeatherConfig w;
    w.num_stations = 150;
    w.readings_per_station = 10;
    Relation rel = workloads::generate_weather(w);
    inputs["weather/gsod"] = rel;
    dfs.write("weather/gsod", std::move(rel));
  }

  void load_airline(std::uint64_t flights = 3000) {
    workloads::AirlineConfig a;
    a.num_flights = flights;
    Relation rel = workloads::generate_flights(a);
    inputs["airline/flights"] = rel;
    dfs.write("airline/flights", std::move(rel));
  }

  void expect_outputs_match_interpreter(const ClientRequest& req,
                                        const ScriptResult& res) {
    const auto plan = dataflow::parse_script(req.script);
    const auto golden = dataflow::interpret(plan, inputs);
    ASSERT_EQ(res.outputs.size(), golden.size());
    for (const auto& [path, rel] : golden) {
      EXPECT_EQ(res.outputs.at(path).sorted_rows(), rel.sorted_rows())
          << path;
    }
  }
};

crypto::Digest256 key_of(std::uint8_t seed) {
  crypto::Digest256 d;
  d.bytes.fill(seed);
  return d;
}

TEST(CheckpointStoreTest, InsertLookupAdoptInvalidate) {
  // The checkpoint lever's view of the store: durable entries,
  // first-wins, adoption counts and conviction invalidation.
  using Reuse = VerifiedStore::Reuse;
  const common::RoleGuard held(common::scheduler_thread_role);
  VerifiedStore store;
  EXPECT_EQ(store.lookup(key_of(1), Reuse::kCheckpoint), nullptr);

  const crypto::Digest256 fp = crypto::Digest256::of("fp");
  store.insert(key_of(1), {fp, "ckpt/aa", {2, 5}, true, 100});
  store.insert(key_of(2), {fp, "ckpt/bb", {7}, true, 100});

  const VerifiedStore::Entry* got = store.lookup(key_of(1), Reuse::kCheckpoint);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->path, "ckpt/aa");
  EXPECT_EQ(got->bytes, 100u);
  EXPECT_EQ(store.stats().durable_writes, 2u);

  // First insert wins: a re-derived entry for the same content address
  // must not clobber the original (same bytes by construction).
  store.insert(key_of(1), {fp, "ckpt/other", {}, true, 100});
  EXPECT_EQ(store.lookup(key_of(1), Reuse::kCheckpoint)->path, "ckpt/aa");
  EXPECT_EQ(store.stats().durable_writes, 2u);

  store.adopted(Reuse::kCheckpoint);
  EXPECT_EQ(store.stats().checkpoint_adoptions, 1u);

  // Convicting node 5 drops exactly the entries it contributed to.
  EXPECT_EQ(store.invalidate_node(5), 1u);
  EXPECT_EQ(store.lookup(key_of(1), Reuse::kCheckpoint), nullptr);
  ASSERT_NE(store.lookup(key_of(2), Reuse::kCheckpoint), nullptr);
  EXPECT_EQ(store.invalidate_node(5), 0u);
}

TEST(VerifiedStoreTest, FirstWinsDurableReplacesAndConvictionInvalidates) {
  // What the merged store adds over one store per lever: both levers
  // read one entry per key, and a durable entry supersedes a
  // non-durable one.
  using Reuse = VerifiedStore::Reuse;
  const common::RoleGuard held(common::scheduler_thread_role);
  VerifiedStore store;
  const crypto::Digest256 fp = crypto::Digest256::of("fp");
  store.insert(key_of(1), {fp, "wave/a", {0, 1, 2}});
  store.insert(key_of(2), {fp, "ckpt/bb", {4, 5}, true, 100});

  // First insert wins among non-durable results.
  store.insert(key_of(1), {fp, "wave/a2", {7}});
  EXPECT_EQ(store.lookup(key_of(1), Reuse::kCacheHit)->path, "wave/a");
  // A cache hit takes any entry; a checkpoint only a durable one.
  EXPECT_EQ(store.lookup(key_of(1), Reuse::kCheckpoint), nullptr);
  const VerifiedStore::Entry* durable =
      store.lookup(key_of(2), Reuse::kCheckpoint);
  ASSERT_NE(durable, nullptr);
  EXPECT_EQ(store.lookup(key_of(2), Reuse::kCacheHit), durable);

  // A durable entry replaces a non-durable one, and is never replaced.
  store.insert(key_of(1), {fp, "ckpt/aa", {0, 1, 2}, true, 50});
  ASSERT_NE(store.lookup(key_of(1), Reuse::kCheckpoint), nullptr);
  EXPECT_EQ(store.lookup(key_of(1), Reuse::kCacheHit)->path, "ckpt/aa");
  store.insert(key_of(1), {fp, "ckpt/other", {9}, true, 50});
  store.insert(key_of(1), {fp, "wave/a3", {9}});
  EXPECT_EQ(store.lookup(key_of(1), Reuse::kCacheHit)->path, "ckpt/aa");

  EXPECT_EQ(store.stats().insertions, 3u) << "ignored inserts must not count";
  EXPECT_EQ(store.stats().durable_writes, 2u);
  store.adopted(Reuse::kCacheHit);
  EXPECT_EQ(store.stats().cache_hits, 1u);
  EXPECT_EQ(store.stats().checkpoint_adoptions, 0u);

  // Conviction drops a durable entry like any other.
  EXPECT_EQ(store.invalidate_node(0), 1u);
  EXPECT_EQ(store.lookup(key_of(1), Reuse::kCacheHit), nullptr);
  EXPECT_EQ(store.size(), 1u);
}

ClientRequest checkpointed(ClientRequest req) {
  req.adaptive_checkpoints = true;
  return req;
}

ClientRequest adaptive(ClientRequest req) {
  req.assurance = Assurance::kAdaptive;
  return req;
}

TEST(CheckpointTest, FaultFreeRunMaterialisesSelectedRelations) {
  World w;
  w.load_weather();
  const auto req = checkpointed(baseline::cluster_bft(
      workloads::weather_average_analysis(), "ckpt", 1, 2, 2));
  const auto res = w.controller->execute(req);
  EXPECT_TRUE(res.verified);
  w.expect_outputs_match_interpreter(req, res);
  // The cost model selected at least one mid-chain verification point and
  // the verified relation landed at its content address.
  EXPECT_GT(res.metrics.checkpoints, 0u);
  EXPECT_GT(res.metrics.checkpoint_bytes, 0u);
  const auto stats = w.controller->store_stats();
  EXPECT_EQ(stats.durable_writes, res.metrics.checkpoints);
  EXPECT_EQ(stats.checkpoint_adoptions, 0u);
}

TEST(CheckpointTest, SecondSessionAdoptsExistingCheckpoint) {
  World w;
  w.load_weather();
  const auto req = checkpointed(baseline::cluster_bft(
      workloads::weather_average_analysis(), "ckpt", 1, 2, 2));
  const auto first = w.controller->execute(req);
  ASSERT_TRUE(first.verified);
  const auto writes = w.controller->store_stats().durable_writes;
  ASSERT_GT(writes, 0u);

  // Same script, same inputs, same policy — same content address. The
  // second session re-verifies but adopts the durable bytes instead of
  // rewriting them.
  const auto second = w.controller->execute(req);
  EXPECT_TRUE(second.verified);
  w.expect_outputs_match_interpreter(req, second);
  const auto stats = w.controller->store_stats();
  EXPECT_EQ(stats.durable_writes, writes);
  EXPECT_GT(stats.checkpoint_adoptions, 0u);
}

ClientRequest cached(ClientRequest req) {
  req.use_result_cache = true;
  return req;
}

TEST(CheckpointTest, CacheSessionAdoptsACheckpointOnlySessionsCheckpoint) {
  // One controller, the same script with different switches: the cache
  // takes any verified entry whose relation exists, so a cache-on
  // session adopts what a checkpoint-only session materialised durably.
  World w;
  w.load_weather();
  const auto base = baseline::cluster_bft(
      workloads::weather_average_analysis(), "mixed", 1, 2, 2);
  const auto first = w.controller->execute(checkpointed(base));
  ASSERT_TRUE(first.verified);
  w.expect_outputs_match_interpreter(base, first);
  ASSERT_GT(first.metrics.checkpoints, 0u);
  EXPECT_EQ(first.metrics.cache_hits, 0u);

  const auto second = w.controller->execute(cached(base));
  ASSERT_TRUE(second.verified);
  w.expect_outputs_match_interpreter(base, second);
  EXPECT_EQ(second.metrics.cache_hits, first.metrics.checkpoints)
      << "every durable entry is a cache hit";
  EXPECT_LT(second.metrics.runs, first.metrics.runs);
  EXPECT_EQ(second.metrics.checkpoints, 0u);
  const auto stats = w.controller->store_stats();
  EXPECT_EQ(stats.cache_hits, second.metrics.cache_hits);
  EXPECT_EQ(stats.checkpoint_adoptions, 0u);
}

TEST(CheckpointTest, CheckpointSessionMaterialisesOverACacheOnlyEntry) {
  // The reverse order: a cache entry points at a run's wave-scoped
  // output, which is not durable, so a checkpoint-only session writes
  // its own `ckpt/` copy (replacing the entry) instead of adopting.
  // A later cache-on session then adopts through the durable entry.
  World w;
  w.load_weather();
  const auto base = baseline::cluster_bft(
      workloads::weather_average_analysis(), "mixed", 1, 2, 2);
  const auto first = w.controller->execute(cached(base));
  ASSERT_TRUE(first.verified);
  w.expect_outputs_match_interpreter(base, first);
  EXPECT_EQ(first.metrics.checkpoints, 0u);
  const auto cache_only = w.controller->store_stats();
  EXPECT_EQ(cache_only.durable_writes, 0u);

  const auto second = w.controller->execute(checkpointed(base));
  ASSERT_TRUE(second.verified);
  w.expect_outputs_match_interpreter(base, second);
  ASSERT_GT(second.metrics.checkpoints, 0u);
  EXPECT_GT(second.metrics.checkpoint_bytes, 0u) << "materialised, not adopted";
  EXPECT_EQ(second.metrics.cache_hits, 0u);
  const auto stats = w.controller->store_stats();
  EXPECT_EQ(stats.durable_writes, second.metrics.checkpoints);
  EXPECT_EQ(stats.checkpoint_adoptions, 0u);
  EXPECT_EQ(stats.insertions, cache_only.insertions + stats.durable_writes);

  const auto third = w.controller->execute(cached(base));
  ASSERT_TRUE(third.verified);
  w.expect_outputs_match_interpreter(base, third);
  EXPECT_GT(third.metrics.cache_hits, 0u);
}

TEST(CheckpointTest, CommissionFaultStillVerifiesWithScopedRestarts) {
  TrackerConfig cfg;
  cfg.policies[5] = AdversaryPolicy{.commission_prob = 1.0};
  World w(cfg);
  w.load_airline();
  const auto req = checkpointed(baseline::cluster_bft(
      workloads::airline_top20_analysis(), "ckpt", 1, 2, 2));
  const auto res = w.controller->execute(req);
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.commission_faults_seen, 0u);
  EXPECT_GT(res.metrics.waves, 2u);  // a restart wave was needed
  w.expect_outputs_match_interpreter(req, res);
}

TEST(CheckpointTest, ScopedRestartsRunNoMoreReplicasThanFullWaves) {
  // Same deterministic fault in both worlds; the only difference is
  // whether restart waves re-execute the whole unverified DAG or just
  // the disputed job's unverified-ancestor closure.
  TrackerConfig cfg;
  cfg.policies[5] = AdversaryPolicy{.commission_prob = 1.0};
  const auto base = baseline::cluster_bft(
      workloads::airline_top20_analysis(), "ckpt", 1, 2, 2);

  World off(cfg);
  off.load_airline();
  const auto res_off = off.controller->execute(base);
  ASSERT_TRUE(res_off.verified);

  World on(cfg);
  on.load_airline();
  const auto res_on = on.controller->execute(checkpointed(base));
  ASSERT_TRUE(res_on.verified);
  on.expect_outputs_match_interpreter(base, res_on);

  EXPECT_LE(res_on.metrics.runs, res_off.metrics.runs);
  for (const auto& [path, rel] : res_off.outputs) {
    EXPECT_EQ(res_on.outputs.at(path).sorted_rows(), rel.sorted_rows());
  }
}

TEST(CheckpointTest, AdaptiveAssuranceRunsStrictlyFewerReplicasFaultFree) {
  // Static 2f+1 pessimism vs adaptive f+1-first: with no faults the
  // adaptive session never escalates, so it executes strictly fewer job
  // replicas — and the verified outputs are bit-identical.
  const auto static_req = baseline::cluster_bft(
      workloads::weather_average_analysis(), "assur", 1, 3, 2);

  World st;
  st.load_weather();
  const auto res_static = st.controller->execute(static_req);
  ASSERT_TRUE(res_static.verified);

  World ad;
  ad.load_weather();
  const auto res_adaptive = ad.controller->execute(adaptive(static_req));
  ASSERT_TRUE(res_adaptive.verified);
  EXPECT_EQ(res_adaptive.metrics.escalations, 0u);
  EXPECT_LT(res_adaptive.metrics.runs, res_static.metrics.runs);
  ad.expect_outputs_match_interpreter(static_req, res_adaptive);
  for (const auto& [path, rel] : res_static.outputs) {
    EXPECT_EQ(res_adaptive.outputs.at(path).sorted_rows(),
              rel.sorted_rows());
  }
}

TEST(CheckpointTest, AdaptiveAssuranceEscalatesOnDisagreement) {
  TrackerConfig cfg;
  cfg.policies[3] = AdversaryPolicy{.commission_prob = 1.0};
  World w(cfg);
  w.load_weather();
  // f+1 = 2 initial chains; the deviant chain forces a 1-vs-1 tie, which
  // escalates the degree (journaled + audited) until a majority exists.
  const auto req = adaptive(baseline::cluster_bft(
      workloads::weather_average_analysis(), "assur", 1, 3, 2));
  const auto res = w.controller->execute(req);
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.metrics.escalations, 0u);
  EXPECT_GT(res.commission_faults_seen, 0u);
  w.expect_outputs_match_interpreter(req, res);
}

TEST(CheckpointTest, AdaptiveWithCheckpointsVerifiesUnderFault) {
  // Both knobs together: f+1-first chains, checkpointed boundaries, and
  // scoped escalation waves jumping the scheduler queue.
  TrackerConfig cfg;
  cfg.policies[5] = AdversaryPolicy{.commission_prob = 1.0};
  World w(cfg);
  w.load_airline();
  const auto req = adaptive(checkpointed(baseline::cluster_bft(
      workloads::airline_top20_analysis(), "both", 1, 3, 2)));
  const auto res = w.controller->execute(req);
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.metrics.escalations, 0u);
  w.expect_outputs_match_interpreter(req, res);
}

/// SHA-256 over the framed bytes of every journal record, in order.
std::string journal_digest_hex(const Journal& journal) {
  crypto::Sha256 h;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    const std::vector<std::uint8_t> bytes =
        Journal::encode_record(journal.at(i));
    h.update(bytes.data(), bytes.size());
  }
  return crypto::to_hex(h.finalize());
}

/// Every ScriptMetrics field (doubles at full precision), the verdict and
/// fault counts, and a digest over the verified fingerprints by sid.
std::string pinned_line(const ScriptResult& r) {
  const ScriptMetrics& m = r.metrics;
  std::string fps;
  for (const auto& [sid, hex] : r.verified_digest_hex) {
    fps += sid + "=" + hex + "\n";
  }
  char line[512];
  std::snprintf(
      line, sizeof line,
      "verified=%d latency=%.17g cpu=%.17g read=%llu write=%llu hdfs=%llu "
      "digested=%llu runs=%zu waves=%zu rollbacks=%zu reports=%zu hits=%zu "
      "ckpts=%zu ckpt_bytes=%llu escalations=%zu failovers=%zu "
      "commission=%zu omission=%zu fps=%s",
      r.verified ? 1 : 0, m.latency_s, m.cpu_seconds,
      static_cast<unsigned long long>(m.file_read),
      static_cast<unsigned long long>(m.file_write),
      static_cast<unsigned long long>(m.hdfs_write),
      static_cast<unsigned long long>(m.digested), m.runs, m.waves,
      m.rollbacks, m.digest_reports, m.cache_hits, m.checkpoints,
      static_cast<unsigned long long>(m.checkpoint_bytes), m.escalations,
      m.cloud_failovers, r.commission_faults_seen, r.omission_faults_seen,
      crypto::Digest256::of(fps).hex().c_str());
  return line;
}

TEST(CheckpointTest, MaterialiseAdoptAndScopedRestartArePinned) {
  // Fault-free weather twice on one journaled controller (the first run
  // materialises, the second adopts), then airline under a node whose
  // every task lies (scoped restart waves from the checkpoints). Each
  // result, the journal bytes and the audit transcript are fixed by
  // these values.
  Journal clean_journal;
  World clean({}, &clean_journal);
  clean.load_weather();
  const auto weather = checkpointed(baseline::cluster_bft(
      workloads::weather_average_analysis(), "ckpt", 1, 2, 2));
  const ScriptResult materialised = clean.controller->execute(weather);
  const ScriptResult adopted = clean.controller->execute(weather);
  ASSERT_TRUE(materialised.verified);
  ASSERT_TRUE(adopted.verified);
  clean.expect_outputs_match_interpreter(weather, adopted);

  TrackerConfig cfg;
  cfg.policies[5] = AdversaryPolicy{.commission_prob = 1.0};
  Journal faulty_journal;
  World faulty(cfg, &faulty_journal);
  faulty.load_airline();
  const auto airline = checkpointed(baseline::cluster_bft(
      workloads::airline_top20_analysis(), "ckpt", 1, 2, 2));
  const ScriptResult restarted = faulty.controller->execute(airline);
  ASSERT_TRUE(restarted.verified);
  faulty.expect_outputs_match_interpreter(airline, restarted);

  EXPECT_EQ(pinned_line(materialised),
            "verified=1 latency=3.0494300000000005 cpu=17.889863999999999 "
            "read=164198 write=81632 hdfs=3118 digested=84750 runs=4 "
            "waves=2 rollbacks=0 reports=24 hits=0 ckpts=1 ckpt_bytes=1216 "
            "escalations=0 failovers=0 commission=0 omission=0 fps="
            "448c3f27ffbd85076e349f818228f7fbfeeb38f195c159f27f3a4485425c0c45");
  EXPECT_EQ(pinned_line(adopted),
            "verified=1 latency=3.0494300000000294 cpu=17.889863999999999 "
            "read=164198 write=81632 hdfs=3118 digested=84750 runs=4 "
            "waves=2 rollbacks=0 reports=24 hits=0 ckpts=1 ckpt_bytes=0 "
            "escalations=0 failovers=0 commission=0 omission=0 fps="
            "0efe984bce1d3c553566d050321839cb758d9120d62384d4d8c9fd9aa380fe9f");
  EXPECT_EQ(pinned_line(restarted),
            "verified=1 latency=8.139088000000001 cpu=136.80526099999997 "
            "read=1900736 write=495254 hdfs=355569 digested=77144 runs=20 "
            "waves=4 rollbacks=1 reports=58 hits=0 ckpts=2 ckpt_bytes=1192 "
            "escalations=0 failovers=0 commission=2 omission=0 fps="
            "078b32a1e416b46425c57fb9aa94b7b43a0260f318ad2b586904b1d6d789e6c7");
  EXPECT_EQ(journal_digest_hex(clean_journal),
            "2bfa84a78b53ae16060ae33d2f92a6a379edd64b5e488b9664f778d852b90262");
  EXPECT_EQ(journal_digest_hex(faulty_journal),
            "3d32b926a3d77985c9e1e16944b2c899dc1e7a5fd54a0f24b51dd3d68bfc95d4");
  EXPECT_EQ(
      crypto::Digest256::of(clean.controller->audit_log().to_string()).hex(),
      "0773e3d690bf3a76696890e38dd0c28d2f26496d68582e17d09836df2cd5f0c5");
  EXPECT_EQ(
      crypto::Digest256::of(faulty.controller->audit_log().to_string()).hex(),
      "804e9ca63213e97a8505e1dbc6c383dbf1ca5b29eea3c4ba776890d313042387");
}

}  // namespace
}  // namespace clusterbft::core
