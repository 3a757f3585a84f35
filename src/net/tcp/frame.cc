#include "net/tcp/frame.h"

#include <cstring>

namespace sqm::net {
namespace {

inline uint64_t Rotl(uint64_t x, int b) {
  return (x << b) | (x >> (64 - b));
}

inline void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

inline void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

inline void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

/// Bounds-checked little-endian reads over the frame body.
struct Reader {
  const uint8_t* p;
  size_t remaining;

  bool U16(uint16_t* v) {
    if (remaining < 2) return false;
    *v = static_cast<uint16_t>(p[0] | (p[1] << 8));
    p += 2;
    remaining -= 2;
    return true;
  }
  bool U32(uint32_t* v) {
    if (remaining < 4) return false;
    uint32_t x = 0;
    for (int i = 0; i < 4; ++i) x |= static_cast<uint32_t>(p[i]) << (8 * i);
    *v = x;
    p += 4;
    remaining -= 4;
    return true;
  }
  bool U64(uint64_t* v) {
    if (remaining < 8) return false;
    uint64_t x = 0;
    for (int i = 0; i < 8; ++i) x |= static_cast<uint64_t>(p[i]) << (8 * i);
    *v = x;
    p += 8;
    remaining -= 8;
    return true;
  }
  bool U8(uint8_t* v) {
    if (remaining < 1) return false;
    *v = p[0];
    ++p;
    --remaining;
    return true;
  }
  bool Bytes(size_t n, const uint8_t** out) {
    if (remaining < n) return false;
    *out = p;
    p += n;
    remaining -= n;
    return true;
  }
};

/// SplitMix64 finalizer, used only to expand the 64-bit session key into
/// the 128-bit SipHash key (not for protocol randomness).
inline uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t SipHash24(uint64_t k0, uint64_t k1, const uint8_t* data,
                   size_t len) {
  uint64_t v0 = 0x736f6d6570736575ULL ^ k0;
  uint64_t v1 = 0x646f72616e646f6dULL ^ k1;
  uint64_t v2 = 0x6c7967656e657261ULL ^ k0;
  uint64_t v3 = 0x7465646279746573ULL ^ k1;

  auto round = [&] {
    v0 += v1;
    v1 = Rotl(v1, 13);
    v1 ^= v0;
    v0 = Rotl(v0, 32);
    v2 += v3;
    v3 = Rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = Rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = Rotl(v1, 17);
    v1 ^= v2;
    v2 = Rotl(v2, 32);
  };

  const size_t full_blocks = len / 8;
  for (size_t i = 0; i < full_blocks; ++i) {
    uint64_t m = 0;
    std::memcpy(&m, data + 8 * i, 8);
    v3 ^= m;
    round();
    round();
    v0 ^= m;
  }
  uint64_t last = static_cast<uint64_t>(len & 0xff) << 56;
  const size_t tail = len & 7;
  for (size_t i = 0; i < tail; ++i) {
    last |= static_cast<uint64_t>(data[full_blocks * 8 + i]) << (8 * i);
  }
  v3 ^= last;
  round();
  round();
  v0 ^= last;
  v2 ^= 0xff;
  round();
  round();
  round();
  round();
  return v0 ^ v1 ^ v2 ^ v3;
}

void DeriveMacKey(uint64_t session_key, uint64_t* k0, uint64_t* k1) {
  *k0 = Mix64(session_key);
  *k1 = Mix64(session_key ^ 0xa5a5a5a5a5a5a5a5ULL);
}

size_t MaxEncodedFrameBytes(size_t elements) {
  // length prefix + fixed header (incl. incarnation) + optional trace
  // context + phase cap + payload + MAC.
  return 4 + 2 + 1 + 1 + 4 + 4 + 4 + 8 + 8 + 16 + 2 + 256 + 4 +
         8 * elements + 8;
}

std::vector<uint8_t> EncodeFrame(const Frame& frame, uint64_t session_key) {
  std::vector<uint8_t> out;
  out.reserve(MaxEncodedFrameBytes(frame.payload.size()) - 250);
  PutU32(out, 0);  // Length prefix, patched below.
  const size_t body_start = out.size();

  PutU16(out, kTcpWireVersion);
  out.push_back(static_cast<uint8_t>(frame.type));
  out.push_back(frame.has_trace ? kFrameFlagTraceContext : 0);
  PutU32(out, frame.from);
  PutU32(out, frame.to);
  PutU32(out, frame.incarnation);
  PutU64(out, frame.seq);
  PutU64(out, frame.run_id);
  if (frame.has_trace) {
    PutU64(out, frame.trace_id);
    PutU64(out, frame.span_id);
  }
  const size_t phase_len = frame.phase.size() > 255 ? 255 : frame.phase.size();
  PutU16(out, static_cast<uint16_t>(phase_len));
  for (size_t i = 0; i < phase_len; ++i) {
    out.push_back(static_cast<uint8_t>(frame.phase[i]));
  }
  PutU32(out, static_cast<uint32_t>(frame.payload.size()));
  for (uint64_t word : frame.payload) PutU64(out, word);

  uint64_t k0 = 0;
  uint64_t k1 = 0;
  DeriveMacKey(session_key, &k0, &k1);
  const uint64_t mac =
      SipHash24(k0, k1, out.data() + body_start, out.size() - body_start);
  PutU64(out, mac);

  const uint32_t body_len = static_cast<uint32_t>(out.size() - body_start);
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<uint8_t>(body_len >> (8 * i));
  }
  return out;
}

Result<Frame> DecodeFrame(const uint8_t* body, size_t len,
                          uint64_t session_key) {
  if (len < 8) {
    return Status::IntegrityViolation("tcp frame shorter than its MAC");
  }
  // Verify the MAC over everything before it, first: nothing from an
  // unauthenticated frame is interpreted beyond fixed-size reads.
  uint64_t k0 = 0;
  uint64_t k1 = 0;
  DeriveMacKey(session_key, &k0, &k1);
  const uint64_t expected = SipHash24(k0, k1, body, len - 8);
  uint64_t mac = 0;
  for (int i = 0; i < 8; ++i) {
    mac |= static_cast<uint64_t>(body[len - 8 + i]) << (8 * i);
  }
  if (mac != expected) {
    return Status::IntegrityViolation(
        "tcp frame MAC verification failed (wrong session key, corrupted "
        "stream, or tampering)");
  }

  Reader r{body, len - 8};
  Frame frame;
  uint16_t version = 0;
  uint8_t type = 0;
  uint8_t flags = 0;
  uint16_t phase_len = 0;
  uint32_t count = 0;
  if (!r.U16(&version) || !r.U8(&type) || !r.U8(&flags) ||
      !r.U32(&frame.from) || !r.U32(&frame.to) ||
      !r.U32(&frame.incarnation) || !r.U64(&frame.seq) ||
      !r.U64(&frame.run_id)) {
    return Status::IntegrityViolation("tcp frame header truncated");
  }
  if (version != kTcpWireVersion) {
    return Status::IntegrityViolation(
        "tcp frame protocol version " + std::to_string(version) +
        " != expected " + std::to_string(kTcpWireVersion));
  }
  if ((flags & ~kFrameFlagTraceContext) != 0) {
    return Status::IntegrityViolation(
        "tcp frame carries unknown flag bits " + std::to_string(flags));
  }
  if ((flags & kFrameFlagTraceContext) != 0) {
    frame.has_trace = true;
    if (!r.U64(&frame.trace_id) || !r.U64(&frame.span_id)) {
      return Status::IntegrityViolation("tcp frame trace context truncated");
    }
  }
  if (!r.U16(&phase_len)) {
    return Status::IntegrityViolation("tcp frame header truncated");
  }
  if (type < static_cast<uint8_t>(FrameType::kHello) ||
      type > static_cast<uint8_t>(FrameType::kBye)) {
    return Status::IntegrityViolation("unknown tcp frame type " +
                                      std::to_string(type));
  }
  frame.type = static_cast<FrameType>(type);
  const uint8_t* phase_bytes = nullptr;
  if (!r.Bytes(phase_len, &phase_bytes)) {
    return Status::IntegrityViolation("tcp frame phase label truncated");
  }
  frame.phase.assign(reinterpret_cast<const char*>(phase_bytes), phase_len);
  if (!r.U32(&count)) {
    return Status::IntegrityViolation("tcp frame payload count truncated");
  }
  if (count > kMaxFrameElements) {
    return Status::IntegrityViolation(
        "tcp frame payload count " + std::to_string(count) +
        " exceeds the " + std::to_string(kMaxFrameElements) +
        "-element cap");
  }
  if (r.remaining != static_cast<size_t>(count) * 8) {
    return Status::IntegrityViolation(
        "tcp frame payload length mismatch: " + std::to_string(r.remaining) +
        " bytes for " + std::to_string(count) + " elements");
  }
  frame.payload.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t word = 0;
    if (!r.U64(&word)) {
      return Status::IntegrityViolation("tcp frame payload truncated");
    }
    frame.payload[i] = word;
  }
  return frame;
}

}  // namespace sqm::net
