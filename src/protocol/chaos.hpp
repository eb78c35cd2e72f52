// ChaosTransport: the control-plane seam over a hostile network.
//
// Every message is encoded through the protocol codec (so only bytes
// cross), then subjected to the bftsmr LinkModel plus chaos extensions:
// per-message drop, duplication, jittered delay, adversarial *reorder*
// (an extra deterministic delay that inverts delivery order against
// later messages) and *corruption* (random byte flips in the encoded
// frame — frames that no longer decode are counted and dropped; frames
// that still decode deliver hostile field values, which the receiving
// tier must survive). Delivery is scheduled on the shared discrete-event
// simulation, so everything is a pure function of the seed.
//
// On top of the symmetric link model, digest-specific knobs model the
// §5.4 scenarios: a verifier must treat missing digests like a silent
// replica (timeout -> rerun) and must NOT convict nodes whose digests
// were merely late. `digest_*` settings affect DigestBatch messages only.
//
// RNG draw-order discipline: the link draws (drop, digest drop, delay,
// duplicate) come first in a fixed order, and the chaos draws (reorder,
// corrupt) are consumed ONLY when their probability is non-zero, so a
// ChaosConfig with the chaos knobs at zero yields the plain lossy-link
// seeded streams. The config is fixed for the transport's lifetime, so
// gating draws on the probabilities does not break determinism.
#pragma once

#include <cstdint>

#include "bftsmr/simnet.hpp"
#include "cluster/event_sim.hpp"
#include "common/rng.hpp"
#include "protocol/transport.hpp"

namespace clusterbft::protocol {

struct ChaosConfig {
  bftsmr::LinkModel link;  ///< applied to every message, both directions

  /// Extra loss applied to DigestBatch messages only.
  double digest_drop_prob = 0.0;
  /// Extra one-way latency added to DigestBatch messages only.
  double digest_delay_s = 0.0;
  /// DigestBatch messages sent before this sim time are dropped — models
  /// a transient digest-path outage (the run itself still completes its
  /// output, but the verifier never hears from it until reruns start
  /// after the blackout lifts).
  double digest_blackout_until_s = 0.0;

  /// Adversarial reordering: with this probability a message is held
  /// back by an extra 50 ms, letting later messages overtake it.
  double reorder_prob = 0.0;

  /// Per-message probability of flipping 1-3 random bytes of the encoded
  /// frame before delivery.
  double corrupt_prob = 0.0;

  std::uint64_t seed = 1;
};

class ChaosTransport final : public Transport {
 public:
  ChaosTransport(cluster::EventSim& sim, ChaosConfig cfg)
      : sim_(sim), cfg_(cfg), rng_(cfg.seed) {}

  void to_control(Message m) override { send(std::move(m), /*up=*/true); }
  void to_computation(Message m) override { send(std::move(m), /*up=*/false); }

  // Fault-model engagement counters (tests assert the storm was real).
  /// Messages lost to drop/blackout.
  std::uint64_t dropped() const { return dropped_; }
  /// Messages delivered twice.
  std::uint64_t duplicated() const { return duplicated_; }
  /// Messages held back by the reorder fault.
  std::uint64_t reordered() const { return reordered_; }
  /// Frames byte-flipped in transit.
  std::uint64_t corrupted() const { return corrupted_; }
  /// Corrupted frames that no longer decoded and were dropped on arrival.
  std::uint64_t corrupt_rejected() const { return corrupt_rejected_; }

 private:
  void send(Message m, bool up);
  bool link_drop_or_blackout(bool is_digest);
  void ship(std::vector<std::uint8_t> frame, double delay, bool up);

  cluster::EventSim& sim_;
  ChaosConfig cfg_;
  Rng rng_;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t corrupt_rejected_ = 0;
};

}  // namespace clusterbft::protocol
