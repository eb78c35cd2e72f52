#include "protocol/chaos.hpp"

#include <utility>

#include "common/check.hpp"
#include "protocol/codec.hpp"

namespace clusterbft::protocol {

namespace {
/// Extra seconds a reordered message is held back (ChaosConfig::
/// reorder_prob), letting later messages overtake it.
constexpr double kReorderDelayS = 0.05;
}  // namespace

void ChaosTransport::send(Message m, bool up) {
  const bool is_digest = std::holds_alternative<DigestBatch>(m);

  // Draw-order discipline: drop, [digest drop], delay, duplicate,
  // [duplicate delay], then the chaos draws (reorder, corrupt) gated on
  // their probabilities being non-zero, so a zero-chaos config keeps the
  // plain lossy-link seeded streams bit-for-bit.
  if (link_drop_or_blackout(is_digest)) {
    ++dropped_;
    return;
  }

  double delay = cfg_.link.delay(rng_);
  if (is_digest) delay += cfg_.digest_delay_s;

  std::vector<std::uint8_t> frame = encode(m);
  if (cfg_.link.duplicate(rng_)) {
    ++duplicated_;
    // The duplicate ships a clean copy with its own delay; corruption
    // below applies to the primary only.
    ship(frame, cfg_.link.delay(rng_) + (is_digest ? cfg_.digest_delay_s : 0.0),
         up);
  }

  if (cfg_.reorder_prob > 0 && rng_.chance(cfg_.reorder_prob)) {
    ++reordered_;
    delay += kReorderDelayS;
  }

  if (cfg_.corrupt_prob > 0 && rng_.chance(cfg_.corrupt_prob) &&
      !frame.empty()) {
    ++corrupted_;
    const std::size_t flips = 1 + rng_.next_below(3);
    for (std::size_t i = 0; i < flips; ++i) {
      const std::size_t pos = rng_.next_below(frame.size());
      frame[pos] ^= static_cast<std::uint8_t>(1 + rng_.next_below(255));
    }
  }

  ship(std::move(frame), delay, up);
}

bool ChaosTransport::link_drop_or_blackout(bool is_digest) {
  // The plain-link drop draw happens for every message so digest knobs
  // never shift the stream other messages see.
  bool lost = cfg_.link.drop(rng_);
  if (is_digest) {
    if (sim_.now() < cfg_.digest_blackout_until_s) lost = true;
    if (rng_.chance(cfg_.digest_drop_prob)) lost = true;
  }
  return lost;
}

void ChaosTransport::ship(std::vector<std::uint8_t> frame, double delay,
                          bool up) {
  sim_.schedule_after(delay, [this, frame = std::move(frame), up] {
    std::optional<Message> m = decode(frame);
    if (!m.has_value()) {
      // With corruption enabled a non-decoding frame is the fault model
      // at work: drop it, like a NIC dropping a frame with a bad CRC.
      // Without corruption both endpoints are our own codec, so a decode
      // failure is a bug.
      CBFT_CHECK(cfg_.corrupt_prob > 0);
      ++corrupt_rejected_;
      return;
    }
    if (up) {
      deliver_control(std::move(*m));
    } else {
      deliver_computation(std::move(*m));
    }
  });
}

}  // namespace clusterbft::protocol
