#ifndef SQM_NET_TCP_SOCKET_H_
#define SQM_NET_TCP_SOCKET_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace sqm::net {

/// RAII owner of one POSIX socket descriptor. Move-only; the destructor
/// closes. This file (socket.h/.cc) is the ONLY module allowed to touch
/// raw socket syscalls — sqmlint's socket-discipline check rejects
/// `socket`/`connect`/`send`/`recv`/... anywhere else, so every errno is
/// converted into a Status exactly once, here.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Relinquishes ownership (caller closes).
  int Release();

  /// Closes now (idempotent).
  void Close();

 private:
  int fd_ = -1;
};

/// Creates a TCP listener bound to host:port (port 0 = ephemeral: a port
/// the kernel picks for UDP, which may share its number with TIME_WAIT
/// entries, else the kernel's TCP pick) with SO_REUSEADDR, backlog
/// accepted. `host` must be a numeric IPv4 address
/// ("127.0.0.1", "0.0.0.0") — deployment configs carry resolved addresses.
Result<Socket> ListenOn(const std::string& host, uint16_t port);

/// The port a listener (or connected socket) is actually bound to — how a
/// port-0 listener reports its ephemeral assignment.
Result<uint16_t> LocalPort(const Socket& socket);

/// Accepts one connection, waiting at most until `deadline`. Fails with
/// kDeadlineExceeded on timeout, kUnavailable if the listener is closed.
Result<Socket> AcceptWithDeadline(
    const Socket& listener, std::chrono::steady_clock::time_point deadline);

/// Connects to host:port, waiting at most until `deadline` (non-blocking
/// connect + poll). The returned socket is in blocking mode with
/// TCP_NODELAY set. kUnavailable on refusal/reset, kDeadlineExceeded on
/// timeout.
Result<Socket> ConnectTo(const std::string& host, uint16_t port,
                         std::chrono::steady_clock::time_point deadline);

/// Writes the whole buffer (retrying short writes; SIGPIPE suppressed).
/// kUnavailable when the peer has gone away.
Status WriteAll(const Socket& socket, const uint8_t* data, size_t len);

/// Reads exactly `len` bytes. kUnavailable on EOF or reset (peer gone),
/// kIoError on other failures. Blocks until satisfied; use ShutdownBoth
/// from another thread to force an in-flight read to return.
Status ReadAll(const Socket& socket, uint8_t* data, size_t len);

/// Like ReadAll but resumable: reads toward `len`, advancing `*got`. When
/// a receive timeout set via SetRecvTimeout expires, returns
/// kDeadlineExceeded with `*got` reflecting progress so the caller can
/// decide to keep waiting (mid-frame) or do housekeeping (frame boundary).
Status ReadFull(const Socket& socket, uint8_t* data, size_t len,
                size_t* got);

/// Arms SO_RCVTIMEO so blocked reads wake periodically (0 disables).
Status SetRecvTimeout(const Socket& socket, double seconds);

/// Half-closes both directions, waking any thread blocked in ReadAll /
/// WriteAll on this socket. Safe on an already-dead socket.
void ShutdownBoth(const Socket& socket);

/// Sets or clears FD_CLOEXEC. The coordinator pre-binds every party's
/// listener, marks them all close-on-exec, and clears the flag in each
/// child for that child's own listener only — so a party never inherits a
/// sibling's socket (an inherited listener would keep a dead party's port
/// half-alive and confuse reconnects).
Status SetCloseOnExec(const Socket& socket, bool enabled);

/// True when this platform supports the TCP transport (POSIX sockets).
bool TcpSupported();

}  // namespace sqm::net

#endif  // SQM_NET_TCP_SOCKET_H_
