#include "spans.hpp"

#include <cstdio>
#include <type_traits>
#include <utility>

namespace perfbench {

namespace proto = clusterbft::protocol;

const char* message_name(std::size_t kind) {
  static constexpr const char* kNames[] = {
      "SubmitRun",   "CancelRun",   "ProbeRequest", "AddNodes",
      "DrainNode",   "NodeAnnounce", "NodeDrained", "NodeStatus",
      "Heartbeat",   "DigestBatch", "RunComplete",  "ProbeReply",
      "ReadmitNode", "NodeReadmitted"};
  static_assert(std::size(kNames) == kMessageKinds,
                "one name per protocol message type");
  return kind < kMessageKinds ? kNames[kind] : "?";
}

void SpanRecorder::arm() {
  armed_ = true;
  origin_ = Clock::now();
  spans_.clear();
  open_.clear();
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::int32_t SpanRecorder::open(std::size_t kind, bool to_computation,
                                std::uint64_t session) {
  if (!armed_) return -1;
  Span s;
  s.kind = static_cast<std::uint16_t>(kind);
  s.to_computation = to_computation;
  s.parent = open_.empty() ? -1 : open_.back();
  s.session = session;
  s.start_ns = now_ns();
  spans_.push_back(s);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

SpanSummary summarize(const std::vector<Span>& spans) {
  SpanSummary out;
  const std::vector<std::int64_t> self = self_times_ns(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self_s = static_cast<double>(self[i]) * 1e-9;
    if (s.to_computation) {
      out.cmd_self_s += self_s;
      ++out.cmds;
    } else {
      out.msg_self_s += self_s;
      ++out.msgs;
    }
    if (s.parent < 0) {
      out.covered_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
    ++out.per_kind[s.kind];
  }
  return out;
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& label) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"label\":\"%s\"},"
               "\"traceEvents\":[\n",
               label.c_str());
  std::fprintf(f,
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"scheduler thread\"}}");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"session\":%llu}}",
                 message_name(s.kind), s.to_computation ? "cluster" : "core",
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<int>(s.parent),
                 static_cast<unsigned long long>(s.session));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

namespace {

/// Closes a delivery span even when a handler throws, so the open-span
/// stack stays balanced.
struct SpanGuard {
  SpanRecorder& rec;
  std::int32_t index;
  SpanGuard(SpanRecorder& r, std::int32_t i) : rec(r), index(i) {}
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  ~SpanGuard() { rec.close(index); }
};

}  // namespace

std::uint64_t TracingTransport::session_of(const proto::Message& m) {
  return std::visit(
      [this](const auto& msg) -> std::uint64_t {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, proto::SubmitRun>) {
          session_of_run_[msg.run] = msg.session;
          return msg.session;
        } else if constexpr (std::is_same_v<T, proto::CancelRun> ||
                             std::is_same_v<T, proto::NodeStatus> ||
                             std::is_same_v<T, proto::Heartbeat> ||
                             std::is_same_v<T, proto::DigestBatch> ||
                             std::is_same_v<T, proto::RunComplete> ||
                             std::is_same_v<T, proto::ProbeReply>) {
          const auto it = session_of_run_.find(msg.run);
          return it == session_of_run_.end() ? 0 : it->second;
        } else {
          return 0;
        }
      },
      m);
}

void TracingTransport::to_control(proto::Message m) {
  if (!rec_.armed()) {
    deliver_control(std::move(m));
    return;
  }
  if (rec_.capture != nullptr) rec_.capture->push_back(m);
  const SpanGuard span(rec_, rec_.open(m.index(), false, session_of(m)));
  deliver_control(std::move(m));
}

void TracingTransport::to_computation(proto::Message m) {
  if (!rec_.armed()) {
    deliver_computation(std::move(m));
    return;
  }
  if (rec_.capture != nullptr) rec_.capture->push_back(m);
  const SpanGuard span(rec_, rec_.open(m.index(), true, session_of(m)));
  deliver_computation(std::move(m));
}

}  // namespace perfbench
