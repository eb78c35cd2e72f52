// Front-end throughput bench (ISSUE 8): requests/s and service-latency
// percentiles for the multi-tenant front end at 1k and 10k queued
// clients over the mixed twitter/weather/airline stream, with the
// verified-result cache ablated on/off.
//
// Half of the stream re-issues an earlier request's script verbatim
// (workloads::mixed_tenant_workload repeated_fraction = 0.5), so with
// the cache ON every repeated sub-graph adopts the cached verified
// evidence instead of re-running — the ISSUE's acceptance bar is a
// >= 1.5x simulated-time throughput gain at that repeat rate, and this
// bench FAILS (exits nonzero, aborting the sweep) if the gain ever
// drops below the bar: all reported numbers are simulated time, fully
// deterministic, so a miss is a regression, never noise.
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "frontend/frontend.hpp"
#include "workloads/mixed.hpp"

using namespace clusterbft;
using namespace clusterbft::bench;

namespace {

frontend::ServiceMetrics run_stream(std::size_t clients, bool use_cache) {
  World w(paper_cluster());
  // Modest per-script inputs: the subject under test is the service
  // layer (admission, queueing, cache adoption), not map-task fan-out.
  load_twitter(w, /*edges=*/800, /*users=*/120);
  load_weather(w, /*stations=*/60, /*readings=*/4);
  load_airline(w, /*flights=*/500);

  frontend::FrontendOptions opts;
  opts.max_concurrent = 8;
  opts.per_tenant_inflight = 4;
  frontend::Frontend fe(*w.controller, w.sim, opts);

  for (const workloads::TenantRequest& tr :
       workloads::mixed_tenant_workload(clients, /*seed=*/42,
                                        /*repeated_fraction=*/0.5)) {
    frontend::Submission sub;
    sub.request = baseline::cluster_bft(tr.script, tr.name, 1, 2, 2);
    sub.request.verifier_timeout_s = 1e9;  // queueing must not fake omission
    sub.request.use_result_cache = use_cache;
    sub.tenant = tr.tenant;
    sub.weight = tr.weight;
    sub.priority = tr.priority;
    fe.submit(std::move(sub));
  }
  fe.run();

  const frontend::ServiceMetrics out = fe.metrics();
  if (out.completed != out.submitted) {
    std::fprintf(stderr,
                 "FATAL: %zu of %zu requests failed verification\n",
                 out.failed, out.submitted);
    std::exit(1);
  }
  return out;
}

void report(BenchJson& sink, const char* tag, std::size_t clients,
            const frontend::ServiceMetrics& off,
            const frontend::ServiceMetrics& on) {
  const double speedup =
      on.requests_per_s / off.requests_per_s;
  std::printf("  %5zu clients  cache off: %7.2f req/sim_s  p50 %6.1fs  "
              "p99 %6.1fs\n",
              clients, off.requests_per_s, off.p50_latency_s,
              off.p99_latency_s);
  std::printf("  %5s          cache on : %7.2f req/sim_s  p50 %6.1fs  "
              "p99 %6.1fs  (%zu adoptions, %.2fx)\n",
              "", on.requests_per_s, on.p50_latency_s,
              on.p99_latency_s, on.cache_hits, speedup);

  sink.add(std::string(tag) + "_rps_cache_off", off.requests_per_s,
           "req_per_sim_s");
  sink.add(std::string(tag) + "_rps_cache_on", on.requests_per_s,
           "req_per_sim_s");
  sink.add(std::string(tag) + "_p50_cache_off", off.p50_latency_s,
           "sim_s");
  sink.add(std::string(tag) + "_p99_cache_off", off.p99_latency_s,
           "sim_s");
  sink.add(std::string(tag) + "_p50_cache_on", on.p50_latency_s,
           "sim_s");
  sink.add(std::string(tag) + "_p99_cache_on", on.p99_latency_s,
           "sim_s");
  sink.add(std::string(tag) + "_cache_hits",
           static_cast<double>(on.cache_hits), "count");
  sink.add(std::string(tag) + "_cache_speedup", speedup, "x");

  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "FATAL: cache speedup %.2fx below the 1.5x bar at %zu "
                 "clients (sim-time, deterministic: this is a regression)\n",
                 speedup, clients);
    std::exit(1);
  }
}

}  // namespace

int main() {
  print_header("Multi-tenant front end throughput",
               "ISSUE 8: requests/s + latency percentiles, cache ablation");
  BenchJson sink("frontend");

  std::printf("mixed twitter/weather/airline stream, 3 tenants (WRR 3:2:1),\n"
              "50%% verbatim repeats, r=2 f=1, 8 concurrent sessions\n\n");

  for (const std::size_t clients : {std::size_t{1000}, std::size_t{10000}}) {
    const auto off = run_stream(clients, /*use_cache=*/false);
    const auto on = run_stream(clients, /*use_cache=*/true);
    report(sink, clients == 1000 ? "c1k" : "c10k", clients, off, on);
  }

  return 0;
}
