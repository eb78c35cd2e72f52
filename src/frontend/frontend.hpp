// Multi-tenant front end for the ClusterBFT control tier.
//
// The controller's session API (begin_session / drive / collect_session)
// executes whatever it is given, immediately. This layer is the service
// in front of it: it admits a *stream* of client requests from multiple
// tenants, decides WHO runs WHEN, and reports per-request results plus
// aggregate service metrics. Scheduling policy lives here, BFT policy
// stays in the controller — the front end never touches pool membership
// or suspicion (enforced by the `session-isolation` lint rule: the only
// verbs it may use are the session API and read-only queries).
//
// Admission is weighted round-robin over tenants with priority classes
// inside each tenant:
//  * tenants are visited in name order; each round a tenant may admit up
//    to `weight` requests (its submissions' weight), so a weight-3 tenant
//    gets 3x the admission slots of a weight-1 tenant under contention;
//  * within a tenant, queued requests are ordered by (priority, arrival)
//    — priority 0 preempts the queue, not running sessions;
//  * a tenant never holds more than `per_tenant_inflight` concurrent
//    sessions, the service never more than `max_concurrent`;
//  * a request is only admitted while the aggregate replication demand
//    (sum of each in-flight session's base replication plus the
//    candidate's) fits the controller's placement capacity — except that
//    ONE session may always run (otherwise a pool smaller than a single
//    request's r would deadlock the queue; the controller's own
//    degraded-mode machinery handles that case).
//
// run() drives admission and the shared event loop until every submitted
// request completed, then freezes the service metrics (admitted / queued
// peak / completed / failed, p50 & p99 service latency including queue
// wait, and simulated-time throughput).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/event_sim.hpp"
#include "core/controller.hpp"
#include "core/request.hpp"

namespace clusterbft::frontend {

struct FrontendOptions {
  /// Global cap on concurrently admitted sessions.
  std::size_t max_concurrent = 8;
  /// Per-tenant cap on concurrently admitted sessions.
  std::size_t per_tenant_inflight = 2;
};

struct Submission {
  core::ClientRequest request;
  std::string tenant = "default";
  /// WRR weight: admission slots per round under contention (>= 1).
  std::size_t weight = 1;
  /// Priority class within the tenant: lower runs first.
  std::size_t priority = 0;
};

/// Aggregate service metrics over one run() (the ISSUE's "requests/s and
/// latency percentile" numbers).
struct ServiceMetrics {
  std::size_t submitted = 0;
  std::size_t admitted = 0;
  std::size_t completed = 0;  ///< verified
  std::size_t failed = 0;     ///< finished unverified
  /// Largest number of requests simultaneously queued (not yet admitted).
  std::size_t queued_peak = 0;
  /// Service latency = finish - submit (queue wait + execution), sim time.
  double p50_latency_s = 0;
  double p99_latency_s = 0;
  /// Finished requests per simulated second, first submit -> last finish.
  double requests_per_s = 0;
  /// Sum of ScriptMetrics::cache_hits over all finished requests.
  std::size_t cache_hits = 0;
};

class Frontend {
 public:
  Frontend(core::ClusterBft& controller, cluster::EventSim& sim,
           FrontendOptions options = {});

  /// Enqueue a request; returns its ticket (index into results). The
  /// submission timestamp is the simulator's current time.
  std::size_t submit(Submission submission);

  /// Admit (WRR) and drive the shared event loop until every submitted
  /// request has finished and been collected. May be called repeatedly:
  /// submissions arriving between runs are timestamped at submit().
  void run();

  /// Result of a finished request; null until run() collected it.
  const core::ScriptResult* result(std::size_t ticket) const;

  ServiceMetrics metrics() const;

 private:
  struct Ticket {
    Submission submission;
    cluster::SimTime submit_time = 0;
    cluster::SimTime finish_time = 0;
    /// Controller session id once admitted; 0 while queued.
    std::size_t session = 0;
    bool collected = false;
    std::optional<core::ScriptResult> result;
  };
  struct Tenant {
    std::size_t weight = 1;
    std::size_t credits = 0;
    std::size_t inflight = 0;
    /// Ticket indices, kept sorted by (priority, arrival).
    std::deque<std::size_t> queued;
  };

  /// One WRR admission sweep; returns true when at least one request was
  /// admitted.
  bool admit_some();
  bool can_admit(const Ticket& t) const;
  void admit(std::size_t ticket);
  /// Collect every finished ticket in `live_`, in ticket order.
  void collect_finished();
  std::size_t queued_total() const;

  core::ClusterBft& controller_;
  cluster::EventSim& sim_;
  FrontendOptions options_;
  std::vector<Ticket> tickets_;
  /// Admitted, uncollected tickets in ascending order (at most
  /// max_concurrent): the only ones a collect sweep has to look at, so
  /// per-step work tracks live sessions, not the submitted stream.
  std::vector<std::size_t> live_;
  /// Name-ordered: the WRR visit order is deterministic by construction.
  std::map<std::string, Tenant> tenants_;
  std::size_t inflight_total_ = 0;
  /// Aggregate max(1, r) over in-flight sessions.
  std::size_t inflight_demand_ = 0;
  ServiceMetrics metrics_;
};

}  // namespace clusterbft::frontend
