// Wire framing for the TCP transport: length-prefixed frames with a
// SipHash-2-4 MAC under the shared session key. The MAC is the only
// authentication on the link (pre-TLS posture, docs/DEPLOYMENT.md), so
// these tests pin down that every forgery vector — wrong key, flipped
// bit, patched version, truncation, hostile length field — is rejected
// before any payload byte is trusted.

#include "net/tcp/frame.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

namespace {

using sqm::net::DecodeFrame;
using sqm::net::EncodeFrame;
using sqm::net::Frame;
using sqm::net::FrameType;
using sqm::net::SipHash24;

constexpr uint64_t kKey = 0x5eed5e551044u;

Frame SampleFrame() {
  Frame frame;
  frame.type = FrameType::kData;
  frame.from = 3;
  frame.to = 1;
  frame.seq = 42;
  frame.incarnation = 7;
  frame.run_id = 88;
  frame.phase = "mul";
  frame.payload = {0, 1, uint64_t{1} << 60, 0x1fffffffffffffffull};
  return frame;
}

/// EncodeFrame output starts with the u32 length prefix; DecodeFrame
/// takes the body after it.
const uint8_t* Body(const std::vector<uint8_t>& wire) {
  return wire.data() + 4;
}
size_t BodyLen(const std::vector<uint8_t>& wire) { return wire.size() - 4; }

TEST(TcpFrame, EncodeDecodeRoundTrip) {
  const Frame frame = SampleFrame();
  const std::vector<uint8_t> wire = EncodeFrame(frame, kKey);
  ASSERT_GT(wire.size(), 4u);

  // The length prefix counts exactly the bytes that follow it.
  uint32_t prefix = 0;
  std::memcpy(&prefix, wire.data(), 4);
  EXPECT_EQ(prefix, BodyLen(wire));

  sqm::Result<Frame> decoded = DecodeFrame(Body(wire), BodyLen(wire), kKey);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Frame& got = decoded.ValueOrDie();
  EXPECT_EQ(got.type, frame.type);
  EXPECT_EQ(got.from, frame.from);
  EXPECT_EQ(got.to, frame.to);
  EXPECT_EQ(got.seq, frame.seq);
  EXPECT_EQ(got.incarnation, frame.incarnation);
  EXPECT_EQ(got.run_id, frame.run_id);
  EXPECT_EQ(got.phase, frame.phase);
  EXPECT_EQ(got.payload, frame.payload);
}

TEST(TcpFrame, EmptyPayloadAndPhaseRoundTrip) {
  Frame frame;
  frame.type = FrameType::kBye;
  const std::vector<uint8_t> wire = EncodeFrame(frame, kKey);
  sqm::Result<Frame> decoded = DecodeFrame(Body(wire), BodyLen(wire), kKey);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().type, FrameType::kBye);
  EXPECT_TRUE(decoded.ValueOrDie().payload.empty());
  EXPECT_TRUE(decoded.ValueOrDie().phase.empty());
}

TEST(TcpFrame, WrongSessionKeyFailsMac) {
  const std::vector<uint8_t> wire = EncodeFrame(SampleFrame(), kKey);
  sqm::Result<Frame> decoded =
      DecodeFrame(Body(wire), BodyLen(wire), kKey + 1);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), sqm::StatusCode::kIntegrityViolation);
}

TEST(TcpFrame, AnySingleBitFlipIsRejected) {
  const std::vector<uint8_t> wire = EncodeFrame(SampleFrame(), kKey);
  // Walk a sample of byte positions across header, phase, payload, MAC.
  for (size_t pos = 4; pos < wire.size(); pos += 5) {
    std::vector<uint8_t> tampered = wire;
    tampered[pos] ^= 0x40;
    sqm::Result<Frame> decoded =
        DecodeFrame(Body(tampered), BodyLen(tampered), kKey);
    EXPECT_FALSE(decoded.ok()) << "bit flip at byte " << pos << " accepted";
  }
}

TEST(TcpFrame, VersionMismatchRejected) {
  std::vector<uint8_t> wire = EncodeFrame(SampleFrame(), kKey);
  // Body layout starts with the u16 wire version, little-endian.
  wire[4] ^= 0xff;
  sqm::Result<Frame> decoded = DecodeFrame(Body(wire), BodyLen(wire), kKey);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), sqm::StatusCode::kIntegrityViolation);
}

TEST(TcpFrame, TruncationRejectedAtEveryLength) {
  const std::vector<uint8_t> wire = EncodeFrame(SampleFrame(), kKey);
  for (size_t len = 0; len < BodyLen(wire); ++len) {
    sqm::Result<Frame> decoded = DecodeFrame(Body(wire), len, kKey);
    EXPECT_FALSE(decoded.ok()) << "truncated body of " << len
                               << " bytes accepted";
  }
}

TEST(TcpFrame, HostilePayloadCountCannotDriveAllocation) {
  std::vector<uint8_t> wire = EncodeFrame(SampleFrame(), kKey);
  // The u32 payload count sits right before the payload words and the
  // trailing 8-byte MAC: offset = len - mac - 4 * u64 payload - 4.
  const size_t count_off = wire.size() - 8 - 4 * 8 - 4;
  const uint32_t huge = 0xffffffffu;
  std::memcpy(wire.data() + count_off, &huge, 4);
  sqm::Result<Frame> decoded = DecodeFrame(Body(wire), BodyLen(wire), kKey);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), sqm::StatusCode::kIntegrityViolation);
}

TEST(TcpFrame, IncarnationIsCoveredByTheMac) {
  // A replay attack on the rejoin protocol would take a pre-crash frame
  // and patch its incarnation field up to the restarted peer's; that only
  // works if the MAC ignores the field. Two frames differing ONLY in
  // incarnation must therefore differ in their trailing MAC bytes, not
  // just in the field itself.
  Frame frame = SampleFrame();
  const std::vector<uint8_t> wire_a = EncodeFrame(frame, kKey);
  frame.incarnation += 1;
  const std::vector<uint8_t> wire_b = EncodeFrame(frame, kKey);
  ASSERT_EQ(wire_a.size(), wire_b.size());
  EXPECT_NE(std::memcmp(wire_a.data() + wire_a.size() - 8,
                        wire_b.data() + wire_b.size() - 8, 8),
            0)
      << "MAC unchanged when the incarnation changed";
}

TEST(TcpFrame, TraceContextRoundTripsWhenFlagged) {
  Frame frame = SampleFrame();
  frame.has_trace = true;
  frame.trace_id = 0xdecafbad0ddba11ull;
  frame.span_id = (uint64_t{3} << 48) | 77;
  const std::vector<uint8_t> wire = EncodeFrame(frame, kKey);
  sqm::Result<Frame> decoded = DecodeFrame(Body(wire), BodyLen(wire), kKey);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.ValueOrDie().has_trace);
  EXPECT_EQ(decoded.ValueOrDie().trace_id, frame.trace_id);
  EXPECT_EQ(decoded.ValueOrDie().span_id, frame.span_id);

  // The context block costs exactly 16 bytes — and only when flagged.
  Frame bare = SampleFrame();
  EXPECT_EQ(wire.size(), EncodeFrame(bare, kKey).size() + 16);
}

TEST(TcpFrame, NoTraceFlagMeansNoContextBytes) {
  // The kill-switch invariant at the wire level: an unflagged frame
  // decodes with has_trace false and zeroed ids, and its encoding is
  // byte-identical to a frame that never had context fields touched.
  Frame frame = SampleFrame();
  frame.trace_id = 0x1234;  // Ignored without has_trace.
  frame.span_id = 0x5678;
  const std::vector<uint8_t> wire = EncodeFrame(frame, kKey);
  EXPECT_EQ(wire, EncodeFrame(SampleFrame(), kKey));
  sqm::Result<Frame> decoded = DecodeFrame(Body(wire), BodyLen(wire), kKey);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded.ValueOrDie().has_trace);
  EXPECT_EQ(decoded.ValueOrDie().trace_id, 0u);
  EXPECT_EQ(decoded.ValueOrDie().span_id, 0u);
}

TEST(TcpFrame, TraceContextIsCoveredByTheMac) {
  // Patching span ids on the wire (to forge causal links in the merged
  // trace) must break the MAC like any other tamper.
  Frame frame = SampleFrame();
  frame.has_trace = true;
  frame.trace_id = 1;
  frame.span_id = 2;
  std::vector<uint8_t> wire = EncodeFrame(frame, kKey);
  frame.span_id = 3;
  const std::vector<uint8_t> wire_b = EncodeFrame(frame, kKey);
  ASSERT_EQ(wire.size(), wire_b.size());
  EXPECT_NE(std::memcmp(wire.data() + wire.size() - 8,
                        wire_b.data() + wire_b.size() - 8, 8),
            0)
      << "MAC unchanged when the span id changed";
}

TEST(TcpFrame, UnknownFlagBitsRejected) {
  // Flags live at body offset 3 (u16 version | u8 type | u8 flags). A
  // future-flag frame must not decode as if the bit were meaningless —
  // but a flipped flag also breaks the MAC, so re-MAC the patched body to
  // prove the flag check itself fires.
  const Frame frame = SampleFrame();
  std::vector<uint8_t> wire = EncodeFrame(frame, kKey);
  wire[4 + 3] |= 0x80;
  uint64_t k0 = 0, k1 = 0;
  sqm::net::DeriveMacKey(kKey, &k0, &k1);
  const uint64_t mac =
      SipHash24(k0, k1, Body(wire), BodyLen(wire) - 8);
  std::memcpy(wire.data() + wire.size() - 8, &mac, 8);
  sqm::Result<Frame> decoded = DecodeFrame(Body(wire), BodyLen(wire), kKey);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), sqm::StatusCode::kIntegrityViolation);
}

TEST(TcpFrame, UnknownFrameTypesAreRejected) {
  // The type byte lives at body offset 2. Types 5-7 were the retired
  // telemetry control stream's hello, clock probe and snapshot; they now
  // decode like any other unknown type. Re-MAC each patched body so the
  // type check itself must fire.
  for (const uint8_t type : {0, 5, 6, 7, 8, 255}) {
    std::vector<uint8_t> wire = EncodeFrame(SampleFrame(), kKey);
    wire[4 + 2] = type;
    uint64_t k0 = 0, k1 = 0;
    sqm::net::DeriveMacKey(kKey, &k0, &k1);
    const uint64_t mac = SipHash24(k0, k1, Body(wire), BodyLen(wire) - 8);
    std::memcpy(wire.data() + wire.size() - 8, &mac, 8);
    sqm::Result<Frame> decoded =
        DecodeFrame(Body(wire), BodyLen(wire), kKey);
    ASSERT_FALSE(decoded.ok()) << "type " << int{type};
    EXPECT_EQ(decoded.status().code(), sqm::StatusCode::kIntegrityViolation);
    EXPECT_NE(decoded.status().message().find(
                  "unknown tcp frame type " + std::to_string(type)),
              std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(TcpFrame, SipHashIsDeterministicAndKeySeparated) {
  const uint8_t data[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const uint64_t a = SipHash24(1, 2, data, sizeof(data));
  EXPECT_EQ(a, SipHash24(1, 2, data, sizeof(data)));
  EXPECT_NE(a, SipHash24(2, 1, data, sizeof(data)));
  EXPECT_NE(a, SipHash24(1, 2, data, sizeof(data) - 1));
}

TEST(TcpFrame, MaxEncodedFrameBytesBoundsRealEncodings) {
  const Frame frame = SampleFrame();
  const std::vector<uint8_t> wire = EncodeFrame(frame, kKey);
  EXPECT_LE(wire.size(),
            sqm::net::MaxEncodedFrameBytes(frame.payload.size()));
}

}  // namespace
