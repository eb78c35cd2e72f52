// Transport tracing: a protocol::Transport with LoopbackTransport's
// synchronous, in-order, codec-free delivery that records one span around
// every delivery it makes.
//
// Deliveries nest. A command sent to the computation tier (SubmitRun)
// dispatches tasks inline, whose events (NodeStatus, Heartbeat) are
// delivered to the control tier before the command returns, and a control
// handler may in turn send further commands. Each span therefore records
// the span that was open when it started, and a layer's self time is its
// span's duration minus the time its child spans cover. Spans to the
// computation tier are the `cluster` layer (command handling by the
// service and tracker); spans to the control tier are the `core` layer
// (the controller's message handlers).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "protocol/messages.hpp"
#include "protocol/registry.hpp"
#include "protocol/service.hpp"
#include "protocol/transport.hpp"

namespace perfbench {

inline constexpr std::size_t kMessageKinds =
    std::variant_size_v<clusterbft::protocol::Message>;

/// Variant alternative name ("SubmitRun", "DigestBatch", ...).
const char* message_name(std::size_t kind);

struct Span {
  std::uint16_t kind = 0;      ///< protocol::Message variant index
  bool to_computation = false; ///< command (cluster) vs event (core)
  std::int64_t start_ns = 0;   ///< since the recorder's origin
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;    ///< index of the enclosing span, -1 = none
  std::uint64_t session = 0;   ///< controller session, 0 = substrate
};

/// In-memory span store. Spans are recorded only while armed, so the
/// deployment's own start-up traffic never lands in an execution's trace.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  /// Start recording; timestamps count from now.
  void arm();
  void disarm() { armed_ = false; }
  bool armed() const { return armed_; }

  /// Open a span (returns its index, or -1 when disarmed) / close it.
  std::int32_t open(std::size_t kind, bool to_computation,
                    std::uint64_t session);
  void close(std::int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Optional copy of every delivered message, for the codec replay.
  std::vector<clusterbft::protocol::Message>* capture = nullptr;

 private:
  /// Nanoseconds since arm().
  std::int64_t now_ns() const;

  bool armed_ = false;
  Clock::time_point origin_{};
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< stack of open span indices
};

/// Self time of every span: its duration minus the durations of its
/// direct children (children never outlive their parent, because
/// delivery is synchronous).
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

struct SpanSummary {
  double cmd_self_s = 0;     ///< to_computation spans (cluster layer)
  std::size_t cmds = 0;
  double msg_self_s = 0;     ///< to_control spans (core layer)
  std::size_t msgs = 0;
  double covered_s = 0;      ///< sum of top-level span durations
  std::array<std::size_t, kMessageKinds> per_kind{};
};

SpanSummary summarize(const std::vector<Span>& spans);

/// Chrome trace-event JSON (complete "X" events, microseconds), which
/// Perfetto and chrome://tracing open offline. Every delivery happens on
/// one thread, so all spans share one track and nest by time; the
/// category names the layer and args carry the span id, parent id and
/// session. Returns false on I/O failure.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& label);

/// LoopbackTransport's delivery plus one span per delivery.
class TracingTransport final : public clusterbft::protocol::Transport {
 public:
  explicit TracingTransport(SpanRecorder& recorder) : rec_(recorder) {}

  void to_control(clusterbft::protocol::Message m) override;
  void to_computation(clusterbft::protocol::Message m) override;

 private:
  std::uint64_t session_of(const clusterbft::protocol::Message& m);

  SpanRecorder& rec_;
  /// Run id -> session, learnt from SubmitRun, so every event of a
  /// script's runs carries that script's session id.
  std::map<std::uint64_t, std::uint64_t> session_of_run_;
};

/// LoopbackSeam's wiring around a TracingTransport.
struct TracingSeam {
  TracingTransport transport;
  clusterbft::protocol::ProgramRegistry programs;
  clusterbft::protocol::ComputationService service;

  TracingSeam(clusterbft::cluster::ExecutionTracker& tracker,
              SpanRecorder& recorder)
      : transport(recorder), service(tracker, transport, programs) {}
};

}  // namespace perfbench
