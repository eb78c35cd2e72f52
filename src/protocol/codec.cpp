#include "protocol/codec.hpp"

#include <array>

#include "common/wire.hpp"

namespace clusterbft::protocol {
namespace {

using common::WireReader;
using common::WireWriter;

void put_ids(WireWriter& w, const std::vector<std::uint64_t>& ids) {
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (std::uint64_t id : ids) w.u64(id);
}

bool get_ids(WireReader& r, std::vector<std::uint64_t>& ids) {
  const std::uint32_t n = r.u32();
  // A hostile length field must not drive a huge reserve: every element
  // costs at least 8 bytes, so cap against what the buffer can hold.
  if (!r.ok() || n > r.remaining() / 8) return false;
  ids.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) ids.push_back(r.u64());
  return r.ok();
}

void put_strs(WireWriter& w, const std::vector<Text>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const Text& s : v) w.str(s.view());
}

// Zero-copy: every element borrows from the reader's buffer. The caller
// of decode() owns the buffer and the lifetime contract (codec.hpp).
bool get_strs(WireReader& r, std::vector<Text>& v) {
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > r.remaining() / 4) return false;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(Text::borrow(r.str_view()));
  return r.ok();
}

// ----------------------------------------------------------- per-message

void encode_payload(WireWriter& w, const SubmitRun& m) {
  w.u64(m.run);
  w.u64(m.session);
  w.u64(m.program);
  w.u64(m.job_index);
  w.u64(m.replica);
  put_strs(w, m.input_paths);
  w.str(m.output_path.view());
  put_ids(w, m.avoid);
  put_ids(w, m.restrict_to);
  w.u64(m.max_nodes);
  w.u8(m.urgent);
  w.u64(m.cloud);
}

bool decode_payload(WireReader& r, SubmitRun& m) {
  m.run = r.u64();
  m.session = r.u64();
  m.program = r.u64();
  m.job_index = r.u64();
  m.replica = r.u64();
  if (!get_strs(r, m.input_paths)) return false;
  m.output_path = Text::borrow(r.str_view());
  if (!get_ids(r, m.avoid)) return false;
  if (!get_ids(r, m.restrict_to)) return false;
  m.max_nodes = r.u64();
  m.urgent = r.u8();
  m.cloud = r.u64();
  return r.ok();
}

void encode_payload(WireWriter& w, const CancelRun& m) { w.u64(m.run); }

bool decode_payload(WireReader& r, CancelRun& m) {
  m.run = r.u64();
  return r.ok();
}

void encode_payload(WireWriter& w, const ProbeRequest& m) {
  w.u64(m.probe);
  w.u64(m.run_suspect);
  w.u64(m.run_control);
  w.str(m.input_path.view());
  w.str(m.suspect_path.view());
  w.str(m.control_path.view());
  w.u64(m.suspect);
  put_ids(w, m.avoid);
}

bool decode_payload(WireReader& r, ProbeRequest& m) {
  m.probe = r.u64();
  m.run_suspect = r.u64();
  m.run_control = r.u64();
  m.input_path = Text::borrow(r.str_view());
  m.suspect_path = Text::borrow(r.str_view());
  m.control_path = Text::borrow(r.str_view());
  m.suspect = r.u64();
  return get_ids(r, m.avoid);
}

void encode_payload(WireWriter& w, const AddNodes& m) {
  w.u64(m.count);
  w.u64(m.slots);
  w.u64(m.seq);
  w.u64(m.cloud);
}

bool decode_payload(WireReader& r, AddNodes& m) {
  m.count = r.u64();
  m.slots = r.u64();
  m.seq = r.u64();
  m.cloud = r.u64();
  return r.ok();
}

void encode_payload(WireWriter& w, const DrainNode& m) { w.u64(m.node); }

bool decode_payload(WireReader& r, DrainNode& m) {
  m.node = r.u64();
  return r.ok();
}

void encode_payload(WireWriter& w, const NodeAnnounce& m) {
  w.u64(m.first);
  w.u64(m.count);
  w.u64(m.cloud);
  w.u64(m.price_milli);
}

bool decode_payload(WireReader& r, NodeAnnounce& m) {
  m.first = r.u64();
  m.count = r.u64();
  m.cloud = r.u64();
  m.price_milli = r.u64();
  return r.ok();
}

void encode_payload(WireWriter& w, const NodeDrained& m) { w.u64(m.node); }

bool decode_payload(WireReader& r, NodeDrained& m) {
  m.node = r.u64();
  return r.ok();
}

void encode_payload(WireWriter& w, const NodeStatus& m) {
  w.u64(m.run);
  w.u64(m.node);
}

bool decode_payload(WireReader& r, NodeStatus& m) {
  m.run = r.u64();
  m.node = r.u64();
  return r.ok();
}

void encode_payload(WireWriter& w, const Heartbeat& m) {
  w.u64(m.run);
  w.u64(m.node);
  w.u8(m.reduce);
  w.f64(m.cpu_seconds);
  w.u64(m.file_read);
  w.u64(m.file_write);
  w.u64(m.digested);
  w.u64(m.seq);
}

bool decode_payload(WireReader& r, Heartbeat& m) {
  m.run = r.u64();
  m.node = r.u64();
  m.reduce = r.u8();
  m.cpu_seconds = r.f64();
  m.file_read = r.u64();
  m.file_write = r.u64();
  m.digested = r.u64();
  m.seq = r.u64();
  return r.ok();
}

void encode_payload(WireWriter& w, const DigestBatch& m) {
  w.u64(m.run);
  w.u64(m.node);
  w.u64(m.seq);
  w.u32(static_cast<std::uint32_t>(m.reports.size()));
  for (const mapreduce::DigestReport& rep : m.reports) encode(w, rep);
}

bool decode_payload(WireReader& r, DigestBatch& m) {
  m.run = r.u64();
  m.node = r.u64();
  m.seq = r.u64();
  const std::uint32_t n = r.u32();
  // Each report carries at least a digest (32 bytes) plus fixed fields.
  if (!r.ok() || n > r.remaining() / 32) return false;
  m.reports.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    mapreduce::DigestReport rep;
    if (!decode(r, rep)) return false;
    m.reports.push_back(std::move(rep));
  }
  return r.ok();
}

void encode_payload(WireWriter& w, const RunComplete& m) {
  w.u64(m.run);
  w.str(m.output_path.view());
  w.u64(m.hdfs_write);
  w.u64(m.digest_reports);
}

bool decode_payload(WireReader& r, RunComplete& m) {
  m.run = r.u64();
  m.output_path = Text::borrow(r.str_view());
  m.hdfs_write = r.u64();
  m.digest_reports = r.u64();
  return r.ok();
}

void encode_payload(WireWriter& w, const ProbeReply& m) {
  w.u64(m.probe);
  w.u64(m.run);
  w.str(m.output_path.view());
}

bool decode_payload(WireReader& r, ProbeReply& m) {
  m.probe = r.u64();
  m.run = r.u64();
  m.output_path = Text::borrow(r.str_view());
  return r.ok();
}

void encode_payload(WireWriter& w, const ReadmitNode& m) { w.u64(m.node); }

bool decode_payload(WireReader& r, ReadmitNode& m) {
  m.node = r.u64();
  return r.ok();
}

void encode_payload(WireWriter& w, const NodeReadmitted& m) { w.u64(m.node); }

bool decode_payload(WireReader& r, NodeReadmitted& m) {
  m.node = r.u64();
  return r.ok();
}

template <typename T>
std::optional<Message> decode_as(WireReader& r) {
  T m;
  if (!decode_payload(r, m)) return std::nullopt;
  return Message{std::move(m)};
}

// CRC-32 (IEEE 802.3, reflected 0xEDB88320), one table lookup per byte:
// the controller checksums every inbound frame it journals. Entry i is
// the register after shifting byte i through the bitwise algorithm.
constexpr std::array<std::uint32_t, 256> kCrc32Table = [] {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int b = 0; b < 8; ++b) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    table[i] = c;
  }
  return table;
}();

// `state` is the raw register (start at 0xFFFFFFFF, finalize with ~), so
// the sum can be accumulated across the header and payload ranges
// without a scratch buffer.
std::uint32_t crc32_update(std::uint32_t state, const std::uint8_t* p,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    state = (state >> 8) ^ kCrc32Table[(state ^ p[i]) & 0xFFu];
  }
  return state;
}

// Envelope layout offsets. The checksum covers [4, 12) (version, type,
// length) and the payload at [16, size) — everything integrity-relevant
// except the magic (a constant, checked directly) and the field itself.
constexpr std::size_t kCrcOffset = 12;
constexpr std::size_t kHeaderSize = 16;

std::uint32_t frame_crc(const std::uint8_t* data, std::size_t size) {
  std::uint32_t state = 0xFFFFFFFFu;
  state = crc32_update(state, data + 4, kCrcOffset - 4);
  state = crc32_update(state, data + kHeaderSize, size - kHeaderSize);
  return ~state;
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& m) {
  WireWriter payload;
  std::visit([&payload](const auto& msg) { encode_payload(payload, msg); }, m);

  WireWriter frame;
  frame.u32(kWireMagic);
  frame.u16(kWireVersion);
  frame.u16(static_cast<std::uint16_t>(m.index() + 1));
  frame.u32(static_cast<std::uint32_t>(payload.bytes().size()));
  frame.u32(0);  // checksum placeholder, sealed below
  frame.raw(payload.bytes().data(), payload.bytes().size());
  std::vector<std::uint8_t> out = frame.take();
  reseal_frame(out);
  return out;
}

void reseal_frame(std::vector<std::uint8_t>& frame) {
  if (frame.size() < kHeaderSize) return;
  const std::uint32_t crc = frame_crc(frame.data(), frame.size());
  frame[kCrcOffset + 0] = static_cast<std::uint8_t>(crc);
  frame[kCrcOffset + 1] = static_cast<std::uint8_t>(crc >> 8);
  frame[kCrcOffset + 2] = static_cast<std::uint8_t>(crc >> 16);
  frame[kCrcOffset + 3] = static_cast<std::uint8_t>(crc >> 24);
}

std::optional<Message> decode(const std::uint8_t* data, std::size_t size) {
  WireReader r(data, size);
  if (r.u32() != kWireMagic) return std::nullopt;
  if (r.u16() != kWireVersion) return std::nullopt;
  const std::uint16_t type = r.u16();
  const std::uint32_t length = r.u32();
  const std::uint32_t crc = r.u32();
  if (!r.ok() || r.remaining() != length) return std::nullopt;
  if (crc != frame_crc(data, size)) return std::nullopt;

  std::optional<Message> out;
  switch (type) {
    case 1: out = decode_as<SubmitRun>(r); break;
    case 2: out = decode_as<CancelRun>(r); break;
    case 3: out = decode_as<ProbeRequest>(r); break;
    case 4: out = decode_as<AddNodes>(r); break;
    case 5: out = decode_as<DrainNode>(r); break;
    case 6: out = decode_as<NodeAnnounce>(r); break;
    case 7: out = decode_as<NodeDrained>(r); break;
    case 8: out = decode_as<NodeStatus>(r); break;
    case 9: out = decode_as<Heartbeat>(r); break;
    case 10: out = decode_as<DigestBatch>(r); break;
    case 11: out = decode_as<RunComplete>(r); break;
    case 12: out = decode_as<ProbeReply>(r); break;
    case 13: out = decode_as<ReadmitNode>(r); break;
    case 14: out = decode_as<NodeReadmitted>(r); break;
    default: return std::nullopt;
  }
  if (!out || !r.ok() || r.remaining() != 0) return std::nullopt;
  return out;
}

}  // namespace clusterbft::protocol
