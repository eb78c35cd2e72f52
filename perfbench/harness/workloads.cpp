#include "workloads.hpp"

#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "baseline/presets.hpp"
#include "cluster/event_sim.hpp"
#include "core/controller.hpp"
#include "core/journal.hpp"
#include "mapreduce/dfs.hpp"
#include "protocol/seam.hpp"
#include "spans.hpp"
#include "workloads/airline.hpp"
#include "workloads/mixed.hpp"
#include "workloads/scripts.hpp"
#include "workloads/twitter.hpp"
#include "workloads/weather.hpp"

namespace perfbench {

namespace cbft = clusterbft;
using cbft::core::ClientRequest;
using cbft::core::ScriptResult;

namespace {

/// Independent sub-seeds from the benchmark seed (SplitMix64 finaliser),
/// so seed 0 and neighbouring seeds still give unrelated streams.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The 32-node, 3-slot testbed of the paper's §6.1/6.2.
cbft::cluster::TrackerConfig paper_cluster(std::uint64_t seed,
                                           std::size_t threads) {
  cbft::cluster::TrackerConfig cfg;
  cfg.num_nodes = 32;
  cfg.slots_per_node = 3;
  cfg.seed = seed;
  cfg.threads = threads;
  return cfg;
}

cbft::dataflow::Relation twitter(std::uint64_t edges, std::uint64_t users,
                                 std::uint64_t seed) {
  cbft::workloads::TwitterConfig tw;
  tw.num_edges = edges;
  tw.num_users = users;
  tw.seed = seed;
  return cbft::workloads::generate_twitter_edges(tw);
}

cbft::dataflow::Relation airline(std::uint64_t flights, std::uint64_t seed) {
  cbft::workloads::AirlineConfig a;
  a.num_flights = flights;
  a.seed = seed;
  return cbft::workloads::generate_flights(a);
}

cbft::dataflow::Relation weather(std::uint64_t stations,
                                 std::uint64_t readings, std::uint64_t seed) {
  cbft::workloads::WeatherConfig w;
  w.num_stations = stations;
  w.readings_per_station = readings;
  w.seed = seed;
  return cbft::workloads::generate_weather(w);
}

/// Fig. 9 Twitter follower analysis at the wall-clock section's size: a
/// data-plane workload with an idle control tier.
void twitter_bft(WorkloadSpec& w, std::uint64_t seed) {
  w.inputs.emplace("twitter/edges", twitter(240000, 16000, derive(seed, 1)));
  w.tracker = paper_cluster(derive(seed, 2), /*threads=*/0);
  w.request = cbft::baseline::cluster_bft(
      cbft::workloads::twitter_follower_analysis(), "twitter", /*f=*/1,
      /*r=*/4, /*n=*/1);
}

/// Table 3 airline top-20 with a node that always commits commission
/// faults: reruns, rollback, attribution, checkpoints and a file journal,
/// on the tracker's worker pool. The node lies in its digests (Table 3's
/// fault), which is wrong whatever the data, so the runs, waves and
/// rollbacks are the same at every seed; corrupting rows instead makes
/// them depend on the data.
void airline_faulty(WorkloadSpec& w, std::uint64_t seed) {
  w.inputs.emplace("airline/flights", airline(50000, derive(seed, 1)));
  w.tracker = paper_cluster(derive(seed, 2), /*threads=*/2);
  w.tracker.policies[0] = cbft::cluster::AdversaryPolicy{
      .commission_prob = 1.0, .lie_in_digest = true};
  w.request = cbft::baseline::cluster_bft(
      cbft::workloads::airline_top20_analysis(), "airline", /*f=*/1, /*r=*/3,
      /*n=*/2);
  w.request.adaptive_checkpoints = true;
  w.request.verifier_threads = 1;
  w.file_journal = true;
}

/// The multi-tenant service: 4,000 small scripts, half verbatim repeats,
/// through the front end with the verified-result cache on.
void mixed_tenants(WorkloadSpec& w, std::uint64_t seed) {
  w.inputs.emplace("twitter/edges", twitter(800, 120, derive(seed, 1)));
  w.inputs.emplace("weather/gsod", weather(60, 4, derive(seed, 3)));
  w.inputs.emplace("airline/flights", airline(500, derive(seed, 4)));
  w.tracker = paper_cluster(derive(seed, 2), /*threads=*/0);
  w.frontend.max_concurrent = 8;
  w.frontend.per_tenant_inflight = 4;
  w.file_journal = true;
  for (const cbft::workloads::TenantRequest& tr :
       cbft::workloads::mixed_tenant_workload(4000, derive(seed, 5),
                                              /*repeated_fraction=*/0.5)) {
    cbft::frontend::Submission sub;
    sub.request = cbft::baseline::cluster_bft(tr.script, tr.name, /*f=*/1,
                                              /*r=*/2, /*n=*/2);
    // Queueing must not look like omission.
    sub.request.verifier_timeout_s = 1e9;
    sub.request.use_result_cache = true;
    sub.tenant = tr.tenant;
    sub.weight = tr.weight;
    sub.priority = tr.priority;
    w.stream.push_back(std::move(sub));
  }
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::size_t process_threads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      std::size_t n = 0;
      status >> n;
      return n;
    }
  }
  return 0;
}

/// One fresh deployment. Members are destroyed in reverse order, so the
/// controller goes before the seam, tracker and journal it refers to.
struct Deployment {
  cbft::cluster::EventSim sim;
  cbft::mapreduce::Dfs dfs;
  std::unique_ptr<cbft::core::Journal> journal;
  std::unique_ptr<cbft::cluster::ExecutionTracker> tracker;
  std::unique_ptr<cbft::protocol::LoopbackSeam> loopback;
  std::unique_ptr<TracingSeam> traced;
  std::unique_ptr<cbft::core::ClusterBft> controller;

  Deployment(const WorkloadSpec& spec, const ExecOptions& opts)
      : dfs(spec.block_size) {
    for (const auto& [path, rel] : spec.inputs) dfs.write(path, rel);
    if (spec.file_journal) {
      journal = std::make_unique<cbft::core::Journal>();
      if (!journal->attach_file(opts.journal_path)) {
        throw std::runtime_error("cannot write journal " + opts.journal_path);
      }
    }
    tracker =
        std::make_unique<cbft::cluster::ExecutionTracker>(sim, dfs, spec.tracker);
    cbft::protocol::Transport* transport = nullptr;
    cbft::protocol::ProgramRegistry* programs = nullptr;
    if (opts.tracer != nullptr) {
      traced = std::make_unique<TracingSeam>(*tracker, *opts.tracer);
      transport = &traced->transport;
      programs = &traced->programs;
    } else {
      loopback = std::make_unique<cbft::protocol::LoopbackSeam>(*tracker);
      transport = &loopback->transport;
      programs = &loopback->programs;
    }
    controller = std::make_unique<cbft::core::ClusterBft>(
        sim, dfs, *transport, *programs, journal.get());
  }
};

void check(Execution& ex, const WorkloadSpec& spec, const ClientRequest& req,
           const ScriptResult* result) {
  ++ex.scripts;
  std::string why;
  if (result == nullptr) {
    why = "no result";
  } else if (!result->verified) {
    why = "unverified";
  } else if (result->failure != cbft::core::FailureReason::kNone) {
    why = std::string("failure reason ") + cbft::core::to_string(result->failure);
  } else {
    why = compare_outputs(spec.reference.at(req.script), result->outputs);
  }
  if (result != nullptr) {
    const cbft::core::ScriptMetrics& m = result->metrics;
    ex.model.per_script.push_back(
        {static_cast<double>(m.runs), static_cast<double>(m.waves),
         static_cast<double>(m.digest_reports), m.latency_s});
    cbft::core::ScriptMetrics& t = ex.model.totals;
    t.latency_s += m.latency_s;
    t.cpu_seconds += m.cpu_seconds;
    t.digested += m.digested;
    t.runs += m.runs;
    t.waves += m.waves;
    t.rollbacks += m.rollbacks;
    t.digest_reports += m.digest_reports;
    t.cache_hits += m.cache_hits;
    t.checkpoints += m.checkpoints;
  }
  if (!why.empty()) {
    ++ex.failed;
    if (ex.failures.size() < 5) ex.failures.push_back(req.name + ": " + why);
  }
}

}  // namespace

std::vector<const ClientRequest*> WorkloadSpec::requests() const {
  std::vector<const ClientRequest*> out;
  if (stream.empty()) {
    out.push_back(&request);
  } else {
    for (const cbft::frontend::Submission& s : stream) out.push_back(&s.request);
  }
  return out;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "twitter_bft", "airline_faulty", "mixed_tenants"};
  return kNames;
}

WorkloadSpec make_workload(const std::string& name, std::uint64_t seed) {
  WorkloadSpec w;
  if (name == "twitter_bft") {
    twitter_bft(w, seed);
  } else if (name == "airline_faulty") {
    airline_faulty(w, seed);
  } else if (name == "mixed_tenants") {
    mixed_tenants(w, seed);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  for (const ClientRequest* req : w.requests()) {
    if (w.reference.count(req->script) == 0) {
      w.reference.emplace(req->script, make_reference(req->script, w.inputs));
    }
  }
  return w;
}

Execution execute(const WorkloadSpec& spec, const ExecOptions& opts) {
  using Clock = std::chrono::steady_clock;
  Execution ex;
  Deployment d(spec, opts);
  const std::vector<const ClientRequest*> requests = spec.requests();
  try {
    if (spec.stream.empty()) {
      if (opts.tracer != nullptr) opts.tracer->arm();
      const double cpu0 = cpu_seconds();
      const auto t0 = Clock::now();
      const ScriptResult result = d.controller->execute(spec.request);
      ex.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
      ex.cpu_s = cpu_seconds() - cpu0;
      if (opts.tracer != nullptr) opts.tracer->disarm();
      check(ex, spec, spec.request, &result);
    } else {
      cbft::frontend::Frontend fe(*d.controller, d.sim, spec.frontend);
      if (opts.tracer != nullptr) opts.tracer->arm();
      const double cpu0 = cpu_seconds();
      const auto t0 = Clock::now();
      for (const cbft::frontend::Submission& sub : spec.stream) fe.submit(sub);
      const auto t1 = Clock::now();
      fe.run();
      ex.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
      ex.cpu_s = cpu_seconds() - cpu0;
      if (opts.tracer != nullptr) opts.tracer->disarm();
      ex.frontend_submit_s = std::chrono::duration<double>(t1 - t0).count();
      for (std::size_t i = 0; i < spec.stream.size(); ++i) {
        check(ex, spec, spec.stream[i].request, fe.result(i));
      }
    }
  } catch (const std::exception& e) {
    if (opts.tracer != nullptr) opts.tracer->disarm();
    ex.scripts = requests.size();
    ex.failed = requests.size();
    ex.failures.assign(1, std::string("threw: ") + e.what());
  }
  ex.threads_peak = process_threads();
  return ex;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
