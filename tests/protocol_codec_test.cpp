// Property test for the control-plane codec: for seeded randomized
// instances of every message type, encode -> decode -> re-encode yields
// identical bytes and an equal value; every truncated prefix and a sweep
// of single-byte corruptions are rejected (or decode to some well-formed
// message) without crashing — the control tier must survive a byzantine
// computation tier flipping bits on the wire. One fixed frame per type
// is pinned byte for byte, checksum included. Runs under the asan-ubsan
// preset too, where any out-of-bounds read in the decoder is fatal.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "protocol/codec.hpp"

namespace clusterbft::protocol {
namespace {

std::string rand_str(Rng& rng) {
  const std::size_t len = rng.next_below(24);
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng.next_below(26)));
  }
  return s;
}

std::vector<Text> rand_strs(Rng& rng) {
  std::vector<Text> v(rng.next_below(4));
  for (auto& s : v) s = rand_str(rng);
  return v;
}

std::vector<std::uint64_t> rand_ids(Rng& rng) {
  std::vector<std::uint64_t> v(rng.next_below(5));
  for (auto& x : v) x = rng.next();
  return v;
}

mapreduce::DigestReport rand_report(Rng& rng) {
  mapreduce::DigestReport r;
  r.key.sid = rand_str(rng);
  r.key.vertex = rng.next_below(64);
  r.key.reduce_side = rng.chance(0.5);
  r.key.branch = rng.next_below(4);
  r.key.partition = rng.next_below(16);
  r.key.chunk = rng.next();
  r.replica = rng.next_below(5);
  for (auto& b : r.digest.bytes) b = static_cast<std::uint8_t>(rng.next());
  r.record_count = rng.next();
  return r;
}

/// One randomized instance of message type `type` (variant index).
Message rand_message(std::size_t type, Rng& rng) {
  switch (type) {
    case 0: {
      SubmitRun m;
      m.run = rng.next();
      m.program = rng.next();
      m.job_index = rng.next_below(8);
      m.replica = rng.next_below(4);
      m.input_paths = rand_strs(rng);
      m.output_path = rand_str(rng);
      m.avoid = rand_ids(rng);
      m.restrict_to = rand_ids(rng);
      m.max_nodes = rng.next_below(32);
      m.urgent = static_cast<std::uint8_t>(rng.next_below(2));
      return m;
    }
    case 1:
      return CancelRun{rng.next()};
    case 2: {
      ProbeRequest m;
      m.probe = rng.next();
      m.run_suspect = rng.next();
      m.run_control = rng.next();
      m.input_path = rand_str(rng);
      m.suspect_path = rand_str(rng);
      m.control_path = rand_str(rng);
      m.suspect = rng.next_below(32);
      m.avoid = rand_ids(rng);
      return m;
    }
    case 3:
      return AddNodes{rng.next_below(8), rng.next_below(4), rng.next()};
    case 4:
      return DrainNode{rng.next_below(32)};
    case 5:
      return NodeAnnounce{rng.next_below(32), rng.next_below(8)};
    case 6:
      return NodeDrained{rng.next_below(32)};
    case 7:
      return NodeStatus{rng.next(), rng.next_below(32)};
    case 8: {
      Heartbeat m;
      m.run = rng.next();
      m.node = rng.next_below(32);
      m.reduce = rng.chance(0.5) ? 1 : 0;
      m.cpu_seconds = rng.uniform(0.0, 100.0);
      m.file_read = rng.next();
      m.file_write = rng.next();
      m.digested = rng.next();
      m.seq = rng.next();
      return m;
    }
    case 9: {
      DigestBatch m;
      m.run = rng.next();
      m.node = rng.next_below(32);
      m.reports.resize(rng.next_below(6));
      for (auto& r : m.reports) r = rand_report(rng);
      m.seq = rng.next();
      return m;
    }
    case 10: {
      RunComplete m;
      m.run = rng.next();
      m.output_path = rand_str(rng);
      m.hdfs_write = rng.next();
      m.digest_reports = rng.next();
      return m;
    }
    case 11:
      return ProbeReply{rng.next(), rng.next(), rand_str(rng)};
    case 12:
      return ReadmitNode{rng.next_below(32)};
    case 13:
      return NodeReadmitted{rng.next_below(32)};
    default:
      ADD_FAILURE() << "unknown type " << type;
      return CancelRun{};
  }
}

constexpr std::size_t kNumTypes = std::variant_size_v<Message>;

TEST(ProtocolCodecTest, RoundTripIsIdentityForAllTypes) {
  Rng rng(2026);
  for (std::size_t type = 0; type < kNumTypes; ++type) {
    for (int iter = 0; iter < 50; ++iter) {
      const Message m = rand_message(type, rng);
      const auto bytes = encode(m);
      const auto back = decode(bytes);
      ASSERT_TRUE(back.has_value()) << "type " << type << " iter " << iter;
      EXPECT_EQ(back->index(), m.index());
      // Equal value <=> identical re-encoding (encode is a pure function
      // of the message value).
      EXPECT_EQ(encode(*back), bytes) << "type " << type << " iter " << iter;
    }
  }
}

/// True iff `v` is a view into the byte range of `frame` (empty views
/// pass vacuously: there is nothing to copy).
bool views_into(std::string_view v, const std::vector<std::uint8_t>& frame) {
  if (v.empty()) return true;
  const char* lo = reinterpret_cast<const char*>(frame.data());
  const char* hi = lo + frame.size();
  return v.data() >= lo && v.data() + v.size() <= hi;
}

TEST(ProtocolCodecTest, DecodeBorrowsPayloadStringsFromFrame) {
  // Zero-copy regression guard: on the happy path, decode must not
  // allocate-and-copy payload strings — every Text field is a borrow
  // whose view() points inside the frame buffer.
  Rng rng(31);
  SubmitRun m;
  m.run = 7;
  m.input_paths = {rand_str(rng), rand_str(rng), rand_str(rng)};
  m.output_path = "out/" + rand_str(rng);
  const auto bytes = encode(Message{m});
  const auto back = decode(bytes);
  ASSERT_TRUE(back.has_value());
  const auto& sr = std::get<SubmitRun>(*back);
  for (const Text& p : sr.input_paths) {
    EXPECT_TRUE(p.borrowed());
    EXPECT_TRUE(views_into(p.view(), bytes)) << p;
  }
  EXPECT_TRUE(sr.output_path.borrowed());
  EXPECT_TRUE(views_into(sr.output_path.view(), bytes));

  ProbeRequest pr;
  pr.input_path = rand_str(rng);
  pr.suspect_path = rand_str(rng);
  pr.control_path = rand_str(rng);
  const auto pr_bytes = encode(Message{pr});
  const auto pr_back = decode(pr_bytes);
  ASSERT_TRUE(pr_back.has_value());
  const auto& got = std::get<ProbeRequest>(*pr_back);
  EXPECT_TRUE(got.input_path.borrowed() && got.suspect_path.borrowed() &&
              got.control_path.borrowed());
  EXPECT_TRUE(views_into(got.input_path.view(), pr_bytes));
  EXPECT_TRUE(views_into(got.suspect_path.view(), pr_bytes));
  EXPECT_TRUE(views_into(got.control_path.view(), pr_bytes));
}

TEST(ProtocolCodecTest, CopyAndOwnPayloadMaterializeBorrows) {
  RunComplete m;
  m.run = 3;
  m.output_path = "w1/out/final";
  const auto bytes = encode(Message{m});

  // Copying a decoded message detaches it from the frame.
  Message copied = *decode(bytes);
  {
    Message tmp = copied;  // copy materializes
    copied = std::move(tmp);
  }
  const auto& rc = std::get<RunComplete>(copied);
  EXPECT_FALSE(rc.output_path.borrowed());
  EXPECT_EQ(rc.output_path.str(), "w1/out/final");

  // decode_owned is the one-step escape hatch.
  const auto owned = decode_owned(bytes);
  ASSERT_TRUE(owned.has_value());
  EXPECT_FALSE(std::get<RunComplete>(*owned).output_path.borrowed());
  EXPECT_EQ(std::get<RunComplete>(*owned).output_path.str(), "w1/out/final");

  // Moves preserve the borrow (the delivery hand-off path).
  auto borrowed = decode(bytes);
  Message moved = std::move(*borrowed);
  EXPECT_TRUE(std::get<RunComplete>(moved).output_path.borrowed());
}

TEST(ProtocolCodecTest, EveryTruncatedPrefixIsRejected) {
  Rng rng(7);
  for (std::size_t type = 0; type < kNumTypes; ++type) {
    const Message m = rand_message(type, rng);
    const auto bytes = encode(m);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(decode(bytes.data(), len).has_value())
          << "type " << type << " accepted a " << len << "-byte prefix of a "
          << bytes.size() << "-byte frame";
    }
  }
}

TEST(ProtocolCodecTest, TrailingBytesAreRejected) {
  const auto bytes = encode(Message{CancelRun{42}});
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(decode(padded).has_value());
}

TEST(ProtocolCodecTest, BadMagicVersionAndTypeAreRejected) {
  const auto good = encode(Message{NodeDrained{3}});
  {
    auto b = good;
    b[0] ^= 0xff;  // magic
    EXPECT_FALSE(decode(b).has_value());
  }
  {
    auto b = good;
    b[4] ^= 0xff;  // version
    EXPECT_FALSE(decode(b).has_value());
  }
  {
    auto b = good;
    b[6] = 0;  // type 0 is reserved
    EXPECT_FALSE(decode(b).has_value());
  }
  {
    auto b = good;
    b[6] = static_cast<std::uint8_t>(kNumTypes + 1);  // out of range
    b[7] = 0;
    EXPECT_FALSE(decode(b).has_value());
  }
}

TEST(ProtocolCodecTest, SingleByteCorruptionIsAlwaysDetected) {
  // Flip each byte of each frame through a few XOR masks. CRC-32 detects
  // every single-byte error regardless of position (header, checksum
  // field, or payload), so EVERY tampered frame must be rejected — a
  // bit-flipped run id masquerading as a fresh command is exactly the
  // corruption class that could re-execute over a verified output path.
  Rng rng(99);
  for (std::size_t type = 0; type < kNumTypes; ++type) {
    const Message m = rand_message(type, rng);
    const auto bytes = encode(m);
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
      for (std::uint8_t mask :
           {std::uint8_t{0x01}, std::uint8_t{0x80}, std::uint8_t{0xff}}) {
        auto b = bytes;
        b[pos] ^= mask;
        EXPECT_FALSE(decode(b).has_value())
            << "type " << type << " accepted a frame corrupted at byte "
            << pos;
      }
    }
  }
}

TEST(ProtocolCodecTest, ResealedTamperingStillFacesDeepValidation) {
  // reseal_frame lets a hostile WELL-CHECKSUMMED frame through to the
  // payload validators — the checksum is integrity, not authentication,
  // so the deeper checks must still hold on resealed garbage.
  const auto good = encode(Message{CancelRun{42}});
  {
    auto b = good;
    b[6] = 0;  // type 0 is reserved
    reseal_frame(b);
    EXPECT_FALSE(decode(b).has_value());
  }
  {
    // A resealed flip in a payload integer decodes to a different, valid
    // value: corruption past the checksum is indistinguishable from a
    // different (well-formed) command by design.
    auto b = good;
    b.back() ^= 0x01;
    reseal_frame(b);
    const auto back = decode(b);
    ASSERT_TRUE(back.has_value());
    EXPECT_NE(std::get<CancelRun>(*back).run, 42u);
  }
}

/// One fixed instance of each message type (variant index), with every
/// field set to a distinct non-zero value so each lands somewhere in the
/// frame.
Message pinned_message(std::size_t type) {
  switch (type) {
    case 0: {
      SubmitRun m;
      m.run = 0x0102030405060708u;
      m.session = 3;
      m.program = 77;
      m.job_index = 2;
      m.replica = 1;
      m.input_paths = {Text{"twitter/edges"}, Text{"s#1/j0/out"}};
      m.output_path = "s#1/j1/r1";
      m.avoid = {4, 9};
      m.restrict_to = {1025};
      m.max_nodes = 6;
      m.urgent = 1;
      m.cloud = 1;
      return m;
    }
    case 1:
      return CancelRun{41};
    case 2: {
      ProbeRequest m;
      m.probe = 5;
      m.run_suspect = 17;
      m.run_control = 18;
      m.input_path = "in/a";
      m.suspect_path = "probe/s";
      m.control_path = "probe/c";
      m.suspect = 3;
      m.avoid = {3, 7};
      return m;
    }
    case 3:
      return AddNodes{2, 4, 12, 1};
    case 4:
      return DrainNode{6};
    case 5:
      return NodeAnnounce{1024, 3, 1, 1250};
    case 6:
      return NodeDrained{6};
    case 7:
      return NodeStatus{19, 2};
    case 8: {
      Heartbeat m;
      m.run = 19;
      m.node = 2;
      m.reduce = 1;
      m.cpu_seconds = 1.5;
      m.file_read = 4096;
      m.file_write = 512;
      m.digested = 300;
      m.seq = 8;
      return m;
    }
    case 9: {
      DigestBatch m;
      m.run = 19;
      m.node = 2;
      mapreduce::DigestReport r;
      r.key.sid = "s#1/j1";
      r.key.vertex = 5;
      r.key.reduce_side = true;
      r.key.branch = 1;
      r.key.partition = 3;
      r.key.chunk = 2;
      r.replica = 1;
      for (std::size_t i = 0; i < r.digest.bytes.size(); ++i) {
        r.digest.bytes[i] = static_cast<std::uint8_t>(0xa0 + i);
      }
      r.record_count = 250;
      m.reports = {r};
      m.seq = 9;
      return m;
    }
    case 10:
      return RunComplete{19, Text{"s#1/j1/r1"}, 2048, 12};
    case 11:
      return ProbeReply{5, 17, Text{"probe/s"}};
    case 12:
      return ReadmitNode{6};
    case 13:
      return NodeReadmitted{6};
    default:
      ADD_FAILURE() << "unknown type " << type;
      return CancelRun{};
  }
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

/// Reference CRC-32 (IEEE, reflected 0xEDB88320), one bit at a time,
/// over the ranges the envelope seals: [4, 12) and [16, size).
std::uint32_t bitwise_frame_crc(const std::vector<std::uint8_t>& frame) {
  std::uint32_t state = 0xFFFFFFFFu;
  for (std::size_t i = 4; i < frame.size(); ++i) {
    if (i >= 12 && i < 16) continue;
    state ^= frame[i];
    for (int b = 0; b < 8; ++b) {
      state = (state >> 1) ^ (0xEDB88320u & (0u - (state & 1u)));
    }
  }
  return ~state;
}

TEST(ProtocolCodecTest, FrameBytesArePinned) {
  // The wire format — header, payload layout and the sealed CRC-32 at
  // [12, 16) — is fixed by these frames. A faster checksum or encoder
  // must reproduce every byte: journals store inbound frames verbatim,
  // so a drift would also change journal bytes.
  const char* const kFrames[kNumTypes] = {
      // SubmitRun
      "5446424305000100890000007ffdf71508070605040302010300000000000000"
      "4d0000000000000002000000000000000100000000000000020000000d000000"
      "747769747465722f65646765730a0000007323312f6a302f6f75740900000073"
      "23312f6a312f7231020000000400000000000000090000000000000001000000"
      "01040000000000000600000000000000010100000000000000",
      // CancelRun
      "5446424305000200080000006d5db9972900000000000000",
      // ProbeRequest
      "544642430500030052000000a53f2cb405000000000000001100000000000000"
      "120000000000000004000000696e2f610700000070726f62652f730700000070"
      "726f62652f630300000000000000020000000300000000000000070000000000"
      "0000",
      // AddNodes
      "544642430500040020000000879321ee02000000000000000400000000000000"
      "0c000000000000000100000000000000",
      // DrainNode
      "544642430500050008000000578722d20600000000000000",
      // NodeAnnounce
      "544642430500060020000000ecb359ec00040000000000000300000000000000"
      "0100000000000000e204000000000000",
      // NodeDrained
      "544642430500070008000000fa434c330600000000000000",
      // NodeStatus
      "5446424305000800100000006c31ad9f13000000000000000200000000000000",
      // Heartbeat
      "5446424305000900390000000172094613000000000000000200000000000000"
      "01000000000000f83f001000000000000000020000000000002c010000000000"
      "000800000000000000",
      // DigestBatch
      "5446424305000a00770000004cede06b13000000000000000200000000000000"
      "090000000000000001000000060000007323312f6a3105000000000000000101"
      "00000000000000030000000000000002000000000000000100000000000000a0"
      "a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebffa"
      "00000000000000",
      // RunComplete
      "5446424305000b00250000005f9c6d1a1300000000000000090000007323312f"
      "6a312f723100080000000000000c00000000000000",
      // ProbeReply
      "5446424305000c001b000000a34f2f2405000000000000001100000000000000"
      "0700000070726f62652f73",
      // ReadmitNode
      "5446424305000d000800000061997be10600000000000000",
      // NodeReadmitted
      "5446424305000e0008000000babc1a9d0600000000000000",
  };
  for (std::size_t type = 0; type < kNumTypes; ++type) {
    const auto bytes = encode(pinned_message(type));
    EXPECT_EQ(hex(bytes), kFrames[type]) << "type " << type;
    // The sealed field (little-endian u32 at [12, 16)) is the bitwise
    // CRC-32 of [4, 12) and the payload.
    ASSERT_GE(bytes.size(), 16u);
    const std::uint32_t sealed =
        static_cast<std::uint32_t>(bytes[12]) |
        static_cast<std::uint32_t>(bytes[13]) << 8 |
        static_cast<std::uint32_t>(bytes[14]) << 16 |
        static_cast<std::uint32_t>(bytes[15]) << 24;
    EXPECT_EQ(sealed, bitwise_frame_crc(bytes)) << "type " << type;
    ASSERT_TRUE(decode(bytes).has_value()) << "type " << type;
    // A flipped CRC field must still fail the integrity check.
    for (std::size_t pos = 12; pos < 16; ++pos) {
      auto b = bytes;
      b[pos] ^= 0x01;
      EXPECT_FALSE(decode(b).has_value())
          << "type " << type << " crc byte " << pos;
    }
  }
}

TEST(ProtocolCodecTest, HostileCountFieldsAreRejected) {
  // A DigestBatch frame whose report count claims far more elements than
  // the payload holds must be rejected without attempting the allocation.
  DigestBatch m;
  m.run = 1;
  m.node = 2;
  auto bytes = encode(Message{m});
  // Payload layout: run u64, node u64, count u32. Overwrite the count
  // (header is 16 bytes: magic, version, type, length, crc).
  const std::size_t count_off = 16 + 8 + 8;
  ASSERT_LT(count_off + 3, bytes.size() + 4);
  bytes.resize(count_off + 4);
  bytes[count_off + 0] = 0xff;
  bytes[count_off + 1] = 0xff;
  bytes[count_off + 2] = 0xff;
  bytes[count_off + 3] = 0x7f;
  // Fix the envelope length to match the (short) payload and reseal the
  // checksum: the COUNT validation, not the integrity check, must be
  // what rejects this frame.
  const std::uint32_t payload = static_cast<std::uint32_t>(bytes.size() - 16);
  bytes[8] = static_cast<std::uint8_t>(payload);
  bytes[9] = static_cast<std::uint8_t>(payload >> 8);
  bytes[10] = static_cast<std::uint8_t>(payload >> 16);
  bytes[11] = static_cast<std::uint8_t>(payload >> 24);
  reseal_frame(bytes);
  EXPECT_FALSE(decode(bytes).has_value());
}

}  // namespace
}  // namespace clusterbft::protocol
