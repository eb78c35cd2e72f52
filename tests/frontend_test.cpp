// Multi-tenant front end: per-script sessions, fair cross-request
// scheduling, and the digest-keyed verified-result cache.
//
// The load-bearing claims under test:
//  * a cache hit is byte-identical to a cold re-execution — outputs AND
//    the verified digest-vector fingerprint at every verification point;
//  * a LOAD input rewritten at an unchanged size is new content to the
//    cache key;
//  * N concurrent sessions produce per-session outputs, metrics (minus
//    latency) and canonical audit transcripts bit-identical to the same
//    N requests executed serially — including after an injected
//    mid-flight controller crash and recover_all();
//  * a stalled session fails with diagnostics naming the session, wave,
//    and what it was waiting on;
//  * the front end's WRR admission respects tenant caps and reports
//    service metrics;
//  * on a 300-request stream every ticket's verdict and finish time, the
//    service metrics, the journal bytes and the audit transcript are
//    pinned, and one collect sweep collects in ticket order.
#include "frontend/frontend.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/presets.hpp"
#include "cluster/tracker.hpp"
#include "common/guarded.hpp"
#include "core/controller.hpp"
#include "core/journal.hpp"
#include "core/verified_store.hpp"
#include "crypto/digest.hpp"
#include "crypto/sha256.hpp"
#include "dataflow/interpreter.hpp"
#include "dataflow/parser.hpp"
#include "protocol/seam.hpp"
#include "workloads/airline.hpp"
#include "workloads/mixed.hpp"
#include "workloads/scripts.hpp"
#include "workloads/twitter.hpp"
#include "workloads/weather.hpp"

namespace clusterbft::frontend {
namespace {

using cluster::AdversaryPolicy;
using cluster::TrackerConfig;
using core::ClientRequest;
using core::ClusterBft;
using core::ScriptResult;

struct World {
  cluster::EventSim sim;
  mapreduce::Dfs dfs{16384};
  std::unique_ptr<cluster::ExecutionTracker> tracker;
  std::unique_ptr<protocol::LoopbackSeam> seam;
  std::unique_ptr<ClusterBft> controller;

  explicit World(TrackerConfig cfg = {}, core::Journal* journal = nullptr) {
    load_inputs(dfs);
    tracker = std::make_unique<cluster::ExecutionTracker>(sim, dfs, cfg);
    seam = std::make_unique<protocol::LoopbackSeam>(*tracker);
    controller = std::make_unique<ClusterBft>(sim, dfs, seam->transport,
                                              seam->programs, journal);
  }

  static void load_inputs(mapreduce::Dfs& dfs) {
    workloads::TwitterConfig tw;
    tw.num_edges = 800;
    tw.num_users = 120;
    dfs.write("twitter/edges", workloads::generate_twitter_edges(tw));
    workloads::WeatherConfig wc;
    wc.num_stations = 60;
    wc.readings_per_station = 4;
    dfs.write("weather/gsod", workloads::generate_weather(wc));
    workloads::AirlineConfig ac;
    ac.num_flights = 500;
    dfs.write("airline/flights", workloads::generate_flights(ac));
  }
};

ClientRequest make_request(const workloads::TenantRequest& tr,
                           bool use_cache) {
  ClientRequest req = baseline::cluster_bft(tr.script, tr.name, 1, 2, 2);
  req.verifier_timeout_s = 1e9;  // contention must never fake an omission
  req.use_result_cache = use_cache;
  return req;
}

/// Request-order scopes ("name#serial") for a request sequence.
std::vector<std::string> scopes_of(const std::vector<ClientRequest>& reqs) {
  std::map<std::string, std::size_t> serial;
  std::vector<std::string> out;
  for (const ClientRequest& r : reqs) {
    out.push_back(r.name + "#" + std::to_string(++serial[r.name]));
  }
  return out;
}

void expect_equal_modulo_latency(const ScriptResult& got,
                                 const ScriptResult& want,
                                 const std::string& scope) {
  SCOPED_TRACE(scope);
  ASSERT_EQ(got.verified, want.verified);
  EXPECT_EQ(got.degraded, want.degraded);
  EXPECT_EQ(got.failure, want.failure);
  ASSERT_EQ(got.outputs.size(), want.outputs.size());
  for (const auto& [path, rel] : want.outputs) {
    ASSERT_TRUE(got.outputs.count(path)) << path;
    EXPECT_EQ(got.outputs.at(path).sorted_rows(), rel.sorted_rows()) << path;
  }
  // Latency depends on queueing; everything else must match bit for bit.
  EXPECT_EQ(got.metrics.cpu_seconds, want.metrics.cpu_seconds);
  EXPECT_EQ(got.metrics.file_read, want.metrics.file_read);
  EXPECT_EQ(got.metrics.file_write, want.metrics.file_write);
  EXPECT_EQ(got.metrics.hdfs_write, want.metrics.hdfs_write);
  EXPECT_EQ(got.metrics.digested, want.metrics.digested);
  EXPECT_EQ(got.metrics.runs, want.metrics.runs);
  EXPECT_EQ(got.metrics.waves, want.metrics.waves);
  EXPECT_EQ(got.metrics.rollbacks, want.metrics.rollbacks);
  EXPECT_EQ(got.metrics.digest_reports, want.metrics.digest_reports);
  EXPECT_EQ(got.metrics.cache_hits, want.metrics.cache_hits);
  EXPECT_EQ(got.commission_faults_seen, want.commission_faults_seen);
  EXPECT_EQ(got.omission_faults_seen, want.omission_faults_seen);
  EXPECT_EQ(got.verified_digest_hex, want.verified_digest_hex)
      << "verification-point fingerprints diverged";
}

std::vector<ClientRequest> mixed_requests(std::size_t count, bool use_cache) {
  std::vector<ClientRequest> reqs;
  for (const auto& tr : workloads::mixed_tenant_workload(count, 11, 0.5)) {
    reqs.push_back(make_request(tr, use_cache));
  }
  return reqs;
}

// ---------------------------------------------------------------- cache

TEST(FrontendTest, CacheHitIsByteIdenticalToColdExecution) {
  World w;
  ClientRequest req = make_request(
      {.tenant = "t", .weight = 1, .priority = 0, .name = "cached",
       .script = workloads::weather_average_analysis()},
      /*use_cache=*/true);

  const ScriptResult cold = w.controller->execute(req);
  ASSERT_TRUE(cold.verified);
  EXPECT_EQ(cold.metrics.cache_hits, 0u);
  ASSERT_FALSE(cold.verified_digest_hex.empty())
      << "the scenario must exercise verification points";

  const ScriptResult hit = w.controller->execute(req);
  ASSERT_TRUE(hit.verified);
  EXPECT_GT(hit.metrics.cache_hits, 0u) << "second run must hit the cache";
  EXPECT_LT(hit.metrics.runs, cold.metrics.runs)
      << "adopted sub-graphs must not re-execute";

  // Byte-identical evidence: same relations, and the same verified
  // digest-vector fingerprint at every verification point. The sids
  // differ only in the scope prefix (cached#1 vs cached#2).
  ASSERT_EQ(hit.outputs.size(), cold.outputs.size());
  for (const auto& [path, rel] : cold.outputs) {
    EXPECT_EQ(hit.outputs.at(path).sorted_rows(), rel.sorted_rows()) << path;
  }
  ASSERT_EQ(hit.verified_digest_hex.size(), cold.verified_digest_hex.size());
  auto strip = [](const std::string& sid) {
    return sid.substr(sid.find(':') + 1);
  };
  std::map<std::string, std::string> cold_fp;
  std::map<std::string, std::string> hit_fp;
  for (const auto& [sid, fp] : cold.verified_digest_hex) {
    cold_fp[strip(sid)] = fp;
  }
  for (const auto& [sid, fp] : hit.verified_digest_hex) {
    hit_fp[strip(sid)] = fp;
  }
  EXPECT_EQ(hit_fp, cold_fp) << "adopted fingerprints diverged from cold";

  const auto stats = w.controller->store_stats();
  EXPECT_EQ(stats.cache_hits, hit.metrics.cache_hits);
  EXPECT_GT(stats.insertions, 0u);

  // Audit trail names every adoption.
  EXPECT_NE(w.controller->audit_log().to_string().find("cache-hit"),
            std::string::npos);
}

TEST(FrontendTest, ConvictionInvalidatesDependentCacheEntries) {
  // The store's invalidation contract for cache entries in isolation:
  // entries remember their contributor set, and convicting any
  // contributor kills every dependent entry (the controller wires
  // invalidate_node into attribute_commission and kProbeCommission
  // outcomes).
  using Reuse = core::VerifiedStore::Reuse;
  const common::RoleGuard held(common::scheduler_thread_role);
  core::VerifiedStore store;
  const crypto::Digest256 ka = crypto::Digest256::of("subgraph-a");
  const crypto::Digest256 kb = crypto::Digest256::of("subgraph-b");
  const crypto::Digest256 kc = crypto::Digest256::of("subgraph-c");
  store.insert(ka, {crypto::Digest256::of("fp-a"), "wave/a", {0, 1, 2}});
  // A dependent entry inherits its dependency's contributors.
  store.insert(kb, {crypto::Digest256::of("fp-b"), "wave/b", {0, 1, 2, 3}});
  store.insert(kc, {crypto::Digest256::of("fp-c"), "wave/c", {4, 5}});
  // First insert wins: re-inserting under ka must not churn the path.
  store.insert(ka, {crypto::Digest256::of("fp-a"), "wave/a2", {7}});
  ASSERT_NE(store.lookup(ka, Reuse::kCacheHit), nullptr);
  EXPECT_EQ(store.lookup(ka, Reuse::kCacheHit)->path, "wave/a");

  // Convict node 2: a and b (which depends on a) die, c survives.
  EXPECT_EQ(store.invalidate_node(2), 2u);
  EXPECT_EQ(store.lookup(ka, Reuse::kCacheHit), nullptr);
  EXPECT_EQ(store.lookup(kb, Reuse::kCacheHit), nullptr);
  ASSERT_NE(store.lookup(kc, Reuse::kCacheHit), nullptr);
  EXPECT_EQ(store.lookup(kc, Reuse::kCacheHit)->path, "wave/c");
  // Convicting a non-contributor is a no-op.
  EXPECT_EQ(store.invalidate_node(2), 0u);

  EXPECT_EQ(store.stats().insertions, 3u) << "duplicate insert must not count";
  EXPECT_EQ(store.size(), 1u);
}

TEST(FrontendTest, SameSizeInputRewriteMissesTheCache) {
  // A LOAD input rewritten in place with content of the same canonical
  // size (one user id swapped for another of the same width) must change
  // every key built on it: a key memoized on the size would adopt the
  // old input's verified result.
  World w;
  ClientRequest req = baseline::cluster_bft(
      workloads::twitter_follower_analysis(), "probe", 1, 2, 2);
  req.use_result_cache = true;
  const ScriptResult before = w.controller->execute(req);
  ASSERT_TRUE(before.verified);

  dataflow::Relation edges = w.dfs.peek("twitter/edges");
  const std::uint64_t size = w.dfs.size_of("twitter/edges");
  bool rewritten = false;
  for (dataflow::Tuple& row : edges.rows()) {
    const dataflow::Value& user = row.at(0);
    if (user.is_null() || user.as_long() % 10 == 9) continue;
    row.at(0) = dataflow::Value(user.as_long() + 1);
    rewritten = true;
    break;
  }
  ASSERT_TRUE(rewritten);
  w.dfs.write("twitter/edges", edges);
  ASSERT_EQ(w.dfs.size_of("twitter/edges"), size);

  const ScriptResult after = w.controller->execute(req);
  ASSERT_TRUE(after.verified);
  EXPECT_EQ(after.metrics.cache_hits, 0u);
  const auto golden = dataflow::interpret(dataflow::parse_script(req.script),
                                          {{"twitter/edges", edges}});
  for (const auto& [path, rel] : golden) {
    ASSERT_TRUE(after.outputs.count(path)) << path;
    EXPECT_EQ(after.outputs.at(path).sorted_rows(), rel.sorted_rows())
        << path;
  }
}

// ------------------------------------------------- concurrent == serial

TEST(FrontendTest, SixteenConcurrentSessionsMatchSerialBitForBit) {
  const std::vector<ClientRequest> reqs =
      mixed_requests(16, /*use_cache=*/false);
  const std::vector<std::string> scopes = scopes_of(reqs);

  // Serial reference: one world, one controller, requests one at a time.
  World serial;
  std::vector<ScriptResult> want;
  for (const ClientRequest& r : reqs) {
    want.push_back(serial.controller->execute(r));
    ASSERT_TRUE(want.back().verified) << want.size() - 1;
  }

  // Concurrent: twin world, all sixteen sessions in flight at once.
  World conc;
  std::vector<std::size_t> session;
  for (const ClientRequest& r : reqs) {
    session.push_back(conc.controller->begin_session(r));
  }
  EXPECT_EQ(conc.controller->active_sessions(), reqs.size());
  conc.controller->drive_all();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const ScriptResult got = conc.controller->collect_session(session[i]);
    expect_equal_modulo_latency(got, want[i], scopes[i]);
  }

  // Canonical per-session audit transcripts are bit-identical despite
  // the interleaving.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(conc.controller->audit_log().transcript(scopes[i]),
              serial.controller->audit_log().transcript(scopes[i]))
        << "audit transcript diverged for " << scopes[i];
  }
}

TEST(FrontendTest, ConcurrentSessionsRecoverBitIdenticalAfterCrash) {
  const std::vector<ClientRequest> reqs =
      mixed_requests(16, /*use_cache=*/false);
  const std::vector<std::string> scopes = scopes_of(reqs);

  // Serial reference (no journal, no crash).
  World serial;
  std::vector<ScriptResult> want;
  for (const ClientRequest& r : reqs) {
    want.push_back(serial.controller->execute(r));
  }

  // Record count of an uninterrupted concurrent run, to pick crash points.
  core::Journal ref_journal;
  {
    World ref({}, &ref_journal);
    for (const ClientRequest& r : reqs) {
      (void)ref.controller->begin_session(r);
    }
    ref.controller->drive_all();
    for (std::size_t s = 1; s <= reqs.size(); ++s) {
      (void)ref.controller->collect_session(s);
    }
  }
  const std::size_t records = ref_journal.size();
  ASSERT_GT(records, 32u);

  // A spread of mid-flight crash points (the exhaustive per-record sweep
  // lives in crash_recovery_test; this one proves the multi-session
  // recovery path at scale).
  for (const std::size_t k :
       {records / 5, records / 2, (records * 4) / 5, records - 1}) {
    SCOPED_TRACE("crash at journal record " + std::to_string(k));
    core::Journal journal;
    journal.set_crash_at(k);
    World w({}, &journal);
    ClusterBft& crashed = *w.controller;
    try {
      for (const ClientRequest& r : reqs) {
        (void)crashed.begin_session(r);
      }
      crashed.drive_all();
      for (std::size_t s = 1; s <= reqs.size(); ++s) {
        (void)crashed.collect_session(s);
      }
      FAIL() << "crash point never fired";
    } catch (const core::ControllerCrashed&) {
    }
    ASSERT_TRUE(journal.crashed());

    ClusterBft recovered(w.sim, w.dfs, w.seam->transport, w.seam->programs,
                         &journal);
    const std::vector<ScriptResult> got = recovered.recover_all(reqs);
    ASSERT_EQ(got.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      expect_equal_modulo_latency(got[i], want[i], scopes[i]);
      EXPECT_EQ(recovered.audit_log().transcript(scopes[i]),
                serial.controller->audit_log().transcript(scopes[i]))
          << "audit transcript diverged for " << scopes[i];
    }
    EXPECT_FALSE(journal.recovery_pending());
  }
}

// ------------------------------------------------------------- frontend

TEST(FrontendTest, MixedTenantStreamCompletesWithFairnessCaps) {
  World w;
  FrontendOptions opts;
  opts.max_concurrent = 4;
  opts.per_tenant_inflight = 2;
  Frontend fe(*w.controller, w.sim, opts);

  const auto workload = workloads::mixed_tenant_workload(12, 3, 0.5);
  std::vector<std::size_t> tickets;
  for (const auto& tr : workload) {
    Submission s;
    s.request = make_request(tr, /*use_cache=*/true);
    s.tenant = tr.tenant;
    s.weight = tr.weight;
    s.priority = tr.priority;
    tickets.push_back(fe.submit(s));
  }
  fe.run();

  const ServiceMetrics m = fe.metrics();
  EXPECT_EQ(m.submitted, workload.size());
  EXPECT_EQ(m.admitted, workload.size());
  EXPECT_EQ(m.completed, workload.size());
  EXPECT_EQ(m.failed, 0u);
  EXPECT_GT(m.queued_peak, 0u) << "caps must actually queue something";
  EXPECT_GT(m.requests_per_s, 0.0);
  EXPECT_GE(m.p99_latency_s, m.p50_latency_s);
  EXPECT_GT(m.cache_hits, 0u)
      << "repeated sub-queries must hit the shared cache";

  for (std::size_t t : tickets) {
    const ScriptResult* res = fe.result(t);
    ASSERT_NE(res, nullptr);
    EXPECT_TRUE(res->verified);
  }
}

/// Per-ticket outcome of a front-end run, read back from the journal.
/// kScriptStart names map sessions to tickets (each request is named
/// "<workload name>@<ticket>"). collect_session appends kScriptFinish and
/// nothing else, so the records' order is the collection order, their
/// time is the ticket's finish time, and a maximal run of consecutive
/// kScriptFinish records is one collect sweep: every session that
/// finished in the same simulator step (or at admission just before it).
struct Collected {
  std::size_t ticket = 0;
  double finish_time = 0;
  std::size_t sweep = 0;
};

std::vector<Collected> collection_order(const core::Journal& journal) {
  std::map<std::uint32_t, std::size_t> ticket_of_session;
  std::vector<Collected> out;
  std::size_t sweep = 0;
  bool in_sweep = false;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    const core::JournalRecord& rec = journal.at(i);
    const bool finish = rec.kind == core::RecordKind::kScriptFinish;
    if (finish && !in_sweep) ++sweep;
    in_sweep = finish;
    if (rec.kind == core::RecordKind::kScriptStart) {
      const std::string name(rec.payload.begin(), rec.payload.end());
      ticket_of_session[rec.session] =
          std::stoul(name.substr(name.rfind('@') + 1));
    } else if (finish) {
      out.push_back({ticket_of_session.at(rec.session), rec.time, sweep});
    }
  }
  return out;
}

/// SHA-256 over the framed bytes of every journal record, in order.
std::string journal_digest_hex(const core::Journal& journal) {
  crypto::Sha256 h;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    const std::vector<std::uint8_t> bytes =
        core::Journal::encode_record(journal.at(i));
    h.update(bytes.data(), bytes.size());
  }
  return crypto::to_hex(h.finalize());
}

TEST(FrontendTest, MixedStreamServiceMetricsArePinned) {
  // A 300-request stream through the front end, cache on: every ticket's
  // finish time and verdict and the whole ServiceMetrics are fixed by
  // these values. The admission/collection loop may get cheaper; what it
  // decides, and when, may not change.
  core::Journal journal;
  World w({}, &journal);
  FrontendOptions opts;
  opts.max_concurrent = 6;
  opts.per_tenant_inflight = 3;
  Frontend fe(*w.controller, w.sim, opts);
  const auto workload = workloads::mixed_tenant_workload(300, 17, 0.5);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    const auto& tr = workload[i];
    Submission s;
    s.request = make_request(tr, /*use_cache=*/true);
    s.request.name = tr.name + "@" + std::to_string(i);
    s.tenant = tr.tenant;
    s.weight = tr.weight;
    s.priority = tr.priority;
    ASSERT_EQ(fe.submit(s), i);
  }
  fe.run();

  const std::vector<Collected> order = collection_order(journal);
  ASSERT_EQ(order.size(), workload.size());
  std::vector<double> finish(workload.size(), -1);
  for (const Collected& c : order) finish[c.ticket] = c.finish_time;
  // Tickets collected in one sweep come out in ascending ticket order;
  // the stream must actually produce multi-ticket sweeps for this to
  // mean anything.
  std::size_t shared_sweeps = 0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i].sweep != order[i - 1].sweep) continue;
    ++shared_sweeps;
    EXPECT_EQ(order[i].finish_time, order[i - 1].finish_time);
    EXPECT_LT(order[i - 1].ticket, order[i].ticket)
        << "sweep " << order[i].sweep << " at t=" << order[i].finish_time;
  }
  EXPECT_GT(shared_sweeps, 0u);

  // Transcript of (ticket, verified, finish time) folded into one digest.
  std::string transcript;
  char line[64];
  for (std::size_t t = 0; t < workload.size(); ++t) {
    const ScriptResult* res = fe.result(t);
    ASSERT_NE(res, nullptr) << t;
    std::snprintf(line, sizeof line, "%zu %d %.17g\n", t,
                  res->verified ? 1 : 0, finish[t]);
    transcript += line;
  }
  EXPECT_EQ(crypto::Digest256::of(transcript).hex(),
            "c8ef7e0d1f21faa635f697bde735d7197b08a7032cbdecb8fd077316ec3d7263")
      << transcript;

  const ServiceMetrics m = fe.metrics();
  EXPECT_EQ(m.submitted, 300u);
  EXPECT_EQ(m.admitted, 300u);
  EXPECT_EQ(m.completed, 300u);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(m.queued_peak, 300u);
  EXPECT_EQ(m.p50_latency_s, 18.556731999999997);
  EXPECT_EQ(m.p99_latency_s, 40.91380199999999);
  EXPECT_EQ(m.requests_per_s, 7.0967935456649824);
  EXPECT_EQ(m.cache_hits, 379u);

  // Every byte the controller journaled and every audit line it wrote:
  // cache adoptions, verifications and finishes may not move either.
  EXPECT_EQ(journal_digest_hex(journal),
            "225aecf3873afdeaeb97af2af8c14a6047f51bd2a1a9b59eaa0801d7cde8a015");
  EXPECT_EQ(crypto::Digest256::of(w.controller->audit_log().to_string()).hex(),
            "80abc5286f43a6d07ef9b97e9bbbdf9d1896efe218305d2d4637b0191c6dbf01");
}

TEST(FrontendTest, PerRequestResultsMatchInterpreter) {
  World w;
  Frontend fe(*w.controller, w.sim, {});
  Submission s;
  s.request = make_request(
      {.tenant = "t", .weight = 1, .priority = 0, .name = "golden",
       .script = workloads::twitter_follower_analysis()},
      /*use_cache=*/false);
  const std::size_t t = fe.submit(s);
  fe.run();
  const ScriptResult* res = fe.result(t);
  ASSERT_NE(res, nullptr);
  ASSERT_TRUE(res->verified);
  const auto plan = dataflow::parse_script(s.request.script);
  const auto golden = dataflow::interpret(
      plan, {{"twitter/edges", w.dfs.read("twitter/edges")}});
  for (const auto& [path, rel] : golden) {
    EXPECT_EQ(res->outputs.at(path).sorted_rows(), rel.sorted_rows()) << path;
  }
}

// -------------------------------------------------------------- stalls

TEST(FrontendTest, StalledSessionDiagnosticsNameWaveAndDependency) {
  // Every node swallows every task, and the script carries no
  // verification points (pure Pig), so no verifier timeout is armed: the
  // event queue drains with the run incomplete. The session must fail as
  // kStalled with diagnostics, not hang or crash.
  TrackerConfig cfg;
  cfg.num_nodes = 4;
  for (cluster::NodeId n = 0; n < 4; ++n) {
    cfg.policies[n] = AdversaryPolicy{.omission_prob = 1.0};
  }
  World w(cfg);
  Frontend fe(*w.controller, w.sim, {});
  Submission s;
  s.request = baseline::pure_pig(workloads::twitter_follower_analysis(),
                                 "stuck");
  const std::size_t t = fe.submit(s);
  fe.run();

  const ScriptResult* res = fe.result(t);
  ASSERT_NE(res, nullptr);
  EXPECT_FALSE(res->verified);
  EXPECT_EQ(res->failure, core::FailureReason::kStalled);
  const std::string audit = w.controller->audit_log().to_string();
  EXPECT_NE(audit.find("stalled"), std::string::npos) << audit;
  EXPECT_NE(audit.find("stuck#1"), std::string::npos)
      << "diagnostics must name the session: " << audit;
  EXPECT_NE(audit.find("wave 0"), std::string::npos)
      << "diagnostics must name the wave: " << audit;
  EXPECT_NE(audit.find("never completed"), std::string::npos)
      << "diagnostics must say what it waited on: " << audit;
  const ServiceMetrics m = fe.metrics();
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(m.completed, 0u);
}

}  // namespace
}  // namespace clusterbft::frontend
