// A complete BFT replica group on the simulated network: 3f+1 replicas,
// client proxies that accept a result once f+1 replicas agree on it, and
// fault injection (crashed and result-corrupting replicas).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bftsmr/replica.hpp"
#include "bftsmr/service.hpp"
#include "bftsmr/simnet.hpp"
#include "cluster/event_sim.hpp"
#include "common/rng.hpp"

namespace clusterbft::bftsmr {

struct SystemConfig {
  std::size_t f = 1;  ///< n = 3f+1 replicas
  double base_delay_s = 0.002;   ///< one-way message latency
  double jitter_s = 0.001;       ///< uniform extra latency
  double drop_prob = 0.0;        ///< per-message loss
  double client_retry_s = 1.0;
  std::uint64_t checkpoint_interval = 16;
  std::size_t batch_size = 1;  ///< requests ordered per agreement round
  /// Consensus instances the primary keeps in flight (0 = auto; see
  /// ReplicaConfig::pipeline_depth).
  std::size_t pipeline_depth = 0;
  std::uint64_t seed = 1;
};

class BftSystem {
 public:
  using ServiceFactory = std::function<std::unique_ptr<Service>()>;
  /// `on_result(request_id, result, latency_s)` fires once per request,
  /// when f+1 matching replies arrived.
  BftSystem(cluster::EventSim& sim, SystemConfig cfg, ServiceFactory factory);

  std::size_t n() const { return replicas_.size(); }
  std::size_t f() const { return cfg_.f; }

  /// Submit an operation from the (single, correct) client. Returns the
  /// request id.
  std::uint64_t submit(std::string op,
                       std::function<void(const std::string&, double)> cb);

  /// Fault injection. Crashed replicas neither send nor receive;
  /// malicious replicas execute correctly but send corrupted replies
  /// (and are caught by the client's f+1 matching).
  void crash(std::size_t replica);
  void make_malicious(std::size_t replica);

  /// Partition a replica away (drops all its traffic) and heal it again —
  /// the state-transfer scenario.
  void disconnect(std::size_t replica);
  void reconnect(std::size_t replica);

  // Introspection.
  const Replica& replica(std::size_t i) const { return *replicas_[i]; }
  std::size_t completed_requests() const { return completed_; }

 private:
  struct PendingRequest {
    std::string op;
    double submitted_at = 0;
    std::function<void(const std::string&, double)> cb;
    std::map<std::string, std::set<std::size_t>> votes;  ///< result -> replicas
    bool done = false;
    std::size_t retries = 0;
  };

  void deliver_to_replica(std::size_t to, Message msg);
  /// Schedule a replica delivery honouring its sequential processing.
  void schedule_replica_delivery(std::size_t to, Message msg);
  void deliver_to_client(Message msg);
  void send_request_to_all(std::uint64_t request_id);
  void arm_client_retry(std::uint64_t request_id);
  double delay();

  cluster::EventSim& sim_;
  SystemConfig cfg_;
  LinkModel link_;
  Rng rng_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<double> busy_until_;  ///< per-replica CPU occupancy
  std::set<std::size_t> crashed_;
  std::set<std::size_t> disconnected_;
  std::set<std::size_t> malicious_;
  std::map<std::uint64_t, PendingRequest> requests_;
  std::uint64_t next_request_id_ = 1;
  std::size_t completed_ = 0;

  static constexpr std::size_t kClientId = 0;
};

}  // namespace clusterbft::bftsmr
