#include "bftsmr/system.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace clusterbft::bftsmr {

namespace {
/// CPU time a replica spends handling one message. Replicas process
/// messages sequentially, so this bounds per-replica throughput — the
/// resource request batching economises (without it, an event-driven
/// simulation would happily run hundreds of consensus instances in
/// perfect parallelism and batching could never win).
constexpr double kProcessTimeS = 50e-6;
/// Seconds a backup waits for progress before suspecting the primary.
constexpr double kViewChangeTimeoutS = 0.5;
}  // namespace

BftSystem::BftSystem(cluster::EventSim& sim, SystemConfig cfg,
                     ServiceFactory factory)
    : sim_(sim), cfg_(cfg), rng_(cfg.seed) {
  link_.base_delay_s = cfg_.base_delay_s;
  link_.jitter_s = cfg_.jitter_s;
  link_.drop_prob = cfg_.drop_prob;
  CBFT_CHECK(cfg_.f >= 1);
  const std::size_t n = 3 * cfg_.f + 1;
  busy_until_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    ReplicaConfig rc;
    rc.id = i;
    rc.n = n;
    rc.f = cfg_.f;
    rc.checkpoint_interval = cfg_.checkpoint_interval;
    rc.view_change_timeout = kViewChangeTimeoutS;
    rc.batch_size = cfg_.batch_size;
    rc.pipeline_depth = cfg_.pipeline_depth;

    auto send = [this, i](std::size_t to, Message msg) {
      if (crashed_.count(i) || crashed_.count(to)) return;
      if (disconnected_.count(i) || disconnected_.count(to)) return;
      if (link_.drop(rng_)) return;
      msg.sender = i;
      schedule_replica_delivery(to, std::move(msg));
    };
    auto reply = [this, i](std::size_t /*client*/, Message msg) {
      if (crashed_.count(i) || disconnected_.count(i)) return;
      if (link_.drop(rng_)) return;
      msg.sender = i;
      if (malicious_.count(i)) {
        msg.result += "#corrupt";  // lies to the client
      }
      sim_.schedule_after(delay(), [this, msg = std::move(msg)] {
        deliver_to_client(msg);
      });
    };
    auto timer = [this, i](double s, std::function<void()> fn) {
      sim_.schedule_after(s, [this, i, fn = std::move(fn)] {
        if (!crashed_.count(i)) fn();
      });
    };
    replicas_.push_back(std::make_unique<Replica>(
        rc, factory(), std::move(send), std::move(reply), std::move(timer)));
  }
}

double BftSystem::delay() { return link_.delay(rng_); }

void BftSystem::schedule_replica_delivery(std::size_t to, Message msg) {
  // A replica handles one message at a time: delivery completes when the
  // message has both arrived and been processed.
  const double arrival = sim_.now() + delay();
  const double start = std::max(arrival, busy_until_[to]);
  const double done = start + kProcessTimeS;
  busy_until_[to] = done;
  sim_.schedule_at(done, [this, to, msg = std::move(msg)] {
    deliver_to_replica(to, msg);
  });
}

void BftSystem::deliver_to_replica(std::size_t to, Message msg) {
  if (crashed_.count(to)) return;
  replicas_[to]->on_message(std::move(msg));
}

void BftSystem::crash(std::size_t replica) {
  CBFT_CHECK(replica < replicas_.size());
  crashed_.insert(replica);
}

void BftSystem::make_malicious(std::size_t replica) {
  CBFT_CHECK(replica < replicas_.size());
  malicious_.insert(replica);
}

void BftSystem::disconnect(std::size_t replica) {
  CBFT_CHECK(replica < replicas_.size());
  disconnected_.insert(replica);
}

void BftSystem::reconnect(std::size_t replica) {
  CBFT_CHECK(replica < replicas_.size());
  disconnected_.erase(replica);
}

std::uint64_t BftSystem::submit(
    std::string op, std::function<void(const std::string&, double)> cb) {
  const std::uint64_t id = next_request_id_++;
  PendingRequest req;
  req.op = std::move(op);
  req.submitted_at = sim_.now();
  req.cb = std::move(cb);
  requests_[id] = std::move(req);
  send_request_to_all(id);
  arm_client_retry(id);
  return id;
}

void BftSystem::send_request_to_all(std::uint64_t request_id) {
  const PendingRequest& req = requests_.at(request_id);
  // The textbook client contacts the primary first and falls back to a
  // broadcast on timeout; broadcasting immediately costs f extra messages
  // and removes one timeout from the critical path — backups simply
  // forward to the primary.
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (crashed_.count(r) || disconnected_.count(r)) continue;
    Message m;
    m.type = MsgType::kRequest;
    m.client = kClientId;
    m.request_id = request_id;
    m.payload = req.op;
    schedule_replica_delivery(r, std::move(m));
  }
}

void BftSystem::arm_client_retry(std::uint64_t request_id) {
  sim_.schedule_after(cfg_.client_retry_s, [this, request_id] {
    auto it = requests_.find(request_id);
    if (it == requests_.end() || it->second.done) return;
    if (++it->second.retries > 20) {
      CBFT_WARN("client request " << request_id << " gave up");
      return;
    }
    send_request_to_all(request_id);
    arm_client_retry(request_id);
  });
}

void BftSystem::deliver_to_client(Message msg) {
  auto it = requests_.find(msg.request_id);
  if (it == requests_.end() || it->second.done) return;
  PendingRequest& req = it->second;
  auto& voters = req.votes[msg.result];
  voters.insert(msg.sender);
  if (voters.size() >= cfg_.f + 1) {
    req.done = true;
    ++completed_;
    const double latency = sim_.now() - req.submitted_at;
    if (req.cb) req.cb(msg.result, latency);
  }
}

}  // namespace clusterbft::bftsmr
