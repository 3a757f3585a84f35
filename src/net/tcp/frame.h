#ifndef SQM_NET_TCP_FRAME_H_
#define SQM_NET_TCP_FRAME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace sqm::net {

/// Wire protocol version carried in every frame header. Receivers reject
/// frames with a different version outright (kIntegrityViolation): a mixed
/// deployment must be upgraded atomically, not limped through.
/// Version 2 added the u32 incarnation field (party restart generation).
/// Version 3 added the optional trace-context block (flags bit 0). Kinds
/// 5-7 belonged to a retired telemetry control stream and are now unknown
/// types.
inline constexpr uint16_t kTcpWireVersion = 3;

/// Flags bit 0: the 16-byte trace-context block (u64 trace_id, u64
/// span_id) is present between run_id and phase_len. Observability-only:
/// with the obs kill switch off the bit is never set and the wire carries
/// no context. All other flag bits must be zero (kIntegrityViolation).
inline constexpr uint8_t kFrameFlagTraceContext = 0x01;

/// Frame kinds exchanged on a TcpTransport link.
enum class FrameType : uint8_t {
  /// Connection opener, dialer -> acceptor: identifies the sending party
  /// and proves knowledge of the session key (the MAC covers run_id).
  kHello = 1,
  /// Acceptor -> dialer answer to a verified kHello.
  kHelloAck = 2,
  /// A protocol payload: one Transport::Send on the (from -> to) channel.
  kData = 3,
  /// Graceful goodbye: the peer finished its run and is closing. Receivers
  /// mark the link cleanly departed instead of starting reconnect attempts.
  kBye = 4,
};

/// One decoded frame. The length prefix (u32, little-endian, counting the
/// bytes that follow it) is handled by the socket layer; everything after
/// it is this struct. Layout, little-endian:
///
///   u16 version | u8 type | u8 flags | u32 from | u32 to |
///   u32 incarnation | u64 seq | u64 run_id |
///   [u64 trace_id | u64 span_id]   (present iff flags & kFrameFlagTraceContext)
///   u16 phase_len | phase bytes | u32 count | count * u64 payload | u64 mac
///
/// The MAC is SipHash-2-4 keyed from the shared session key over every
/// byte before it (version through payload), giving TLS-less channel
/// authentication: a peer that does not know the session key cannot forge
/// or splice frames. It is not encryption — payloads are cleartext shares,
/// which is acceptable on a trusted network segment and explicitly
/// documented in docs/DEPLOYMENT.md as the pre-TLS posture.
struct Frame {
  FrameType type = FrameType::kData;
  uint32_t from = 0;
  uint32_t to = 0;
  /// The sender's restart generation under this run_id: 0 for a party's
  /// first process, +1 per supervisor respawn. Handshakes carry it so a
  /// rejoining party resets its peers' replay state; data frames carry it
  /// so a frame captured before a crash (old incarnation, old seq space)
  /// can never be replayed into the new link.
  uint32_t incarnation = 0;
  /// Per-(link, direction) send counter; receivers require it to be
  /// strictly increasing, which rejects replayed or re-ordered frames.
  uint64_t seq = 0;
  /// Run identifier from the deployment config; frames from another run
  /// (a stale daemon, a crossed port) fail verification.
  uint64_t run_id = 0;
  /// Optional trace context (flags bit kFrameFlagTraceContext): the
  /// sender's trace id and the span id of the `net.send` span that emitted
  /// this frame, letting the receiver link its `net.recv` span causally
  /// across processes. Under the MAC like every other header field.
  bool has_trace = false;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  /// Transport phase label at send time ("input", "mul", "census", ...).
  std::string phase;
  std::vector<uint64_t> payload;
};

/// Hard cap on payload elements per frame (32 MiB of payload). DecodeFrame
/// rejects larger counts before allocating, so a corrupt or hostile length
/// field cannot drive an allocation bomb.
inline constexpr size_t kMaxFrameElements = size_t{1} << 22;

/// Upper bound on the encoded byte size of a frame with `elements` payload
/// words (header + phase + MAC + length prefix slack).
size_t MaxEncodedFrameBytes(size_t elements);

/// SipHash-2-4 of `data` under the 128-bit key (k0, k1). Public-domain
/// construction (Aumasson–Bernstein); used as the frame MAC PRF.
uint64_t SipHash24(uint64_t k0, uint64_t k1, const uint8_t* data, size_t len);

/// Derives the two SipHash key words from the shared session key.
void DeriveMacKey(uint64_t session_key, uint64_t* k0, uint64_t* k1);

/// Serializes `frame` (including the leading u32 length prefix) and
/// appends the MAC computed under `session_key`.
std::vector<uint8_t> EncodeFrame(const Frame& frame, uint64_t session_key);

/// Parses and verifies one frame body (`len` bytes after the length
/// prefix). Fails with kIntegrityViolation on version mismatch, truncated
/// layout, oversized payload counts, or a MAC that does not verify under
/// `session_key`.
Result<Frame> DecodeFrame(const uint8_t* body, size_t len,
                          uint64_t session_key);

}  // namespace sqm::net

#endif  // SQM_NET_TCP_FRAME_H_
