#include "net/tcp/socket.h"

#include <cerrno>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define SQM_HAVE_POSIX_SOCKETS 1
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#else
#define SQM_HAVE_POSIX_SOCKETS 0
#endif

namespace sqm::net {

namespace {

std::string ErrnoMessage(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

#if SQM_HAVE_POSIX_SOCKETS
int MillisUntil(std::chrono::steady_clock::time_point deadline) {
  const auto now = std::chrono::steady_clock::now();
  if (deadline <= now) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
          .count();
  // A listener shut down with ShutdownBoth wakes poll directly (POLLHUP on
  // Linux); the slice bound only caps how long a caller's deadline check
  // waits where shutdown(2) does not wake a listening socket.
  return ms > 200 ? 200 : static_cast<int>(ms);
}
#endif

}  // namespace

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int Socket::Release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Socket::Close() {
#if SQM_HAVE_POSIX_SOCKETS
  if (fd_ >= 0) {
    // EINTR on close is unrecoverable by retry (the fd state is
    // unspecified); record nothing and move on.
    const int rc = ::close(fd_);
    (void)rc;
    fd_ = -1;
  }
#else
  fd_ = -1;
#endif
}

bool TcpSupported() { return SQM_HAVE_POSIX_SOCKETS != 0; }

#if SQM_HAVE_POSIX_SOCKETS

namespace {

Result<Socket> BindAndListen(const sockaddr_in& addr, const std::string& host) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(ErrnoMessage("socket"));
  Socket sock(fd);

  const int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0) {
    return Status::IoError(ErrnoMessage("setsockopt(SO_REUSEADDR)"));
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IoError(ErrnoMessage(("bind " + host).c_str()));
  }
  if (::listen(fd, 64) != 0) {
    return Status::IoError(ErrnoMessage("listen"));
  }
  return sock;
}

// A port that is free for UDP on `addr`, chosen by the kernel; 0 if none.
uint16_t UdpChosenPort(sockaddr_in addr) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return 0;
  Socket sock(fd);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return 0;
  }
  return LocalPort(sock).ValueOr(0);
}

}  // namespace

Result<Socket> ListenOn(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  if (port == 0) {
    // The kernel's TCP search for port 0 skips every port that holds a
    // TIME_WAIT entry; once a busy host's entries fill the ephemeral range
    // it costs milliseconds per bind. An explicit bind under SO_REUSEADDR
    // may share its port with TIME_WAIT entries of SO_REUSEADDR sockets,
    // so take the port the kernel picks for UDP (microseconds) and fall
    // back to port 0 when every port tried is taken.
    for (int attempt = 0; attempt < 8; ++attempt) {
      const uint16_t candidate = UdpChosenPort(addr);
      if (candidate == 0) break;
      sockaddr_in chosen = addr;
      chosen.sin_port = htons(candidate);
      Result<Socket> sock = BindAndListen(chosen, host);
      if (sock.ok()) return sock;
    }
  }
  return BindAndListen(addr, host);
}

Result<uint16_t> LocalPort(const Socket& socket) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Status::IoError(ErrnoMessage("getsockname"));
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<Socket> AcceptWithDeadline(
    const Socket& listener, std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    pollfd pfd{listener.fd(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, MillisUntil(deadline));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("poll(accept)"));
    }
    if (ready > 0) {
      if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        return Status::Unavailable("listener socket closed");
      }
      const int fd = ::accept(listener.fd(), nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
            errno == EWOULDBLOCK) {
          continue;
        }
        return Status::IoError(ErrnoMessage("accept"));
      }
      Socket sock(fd);
      const int one = 1;
      if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) !=
          0) {
        return Status::IoError(ErrnoMessage("setsockopt(TCP_NODELAY)"));
      }
      return sock;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("accept timed out");
    }
  }
}

Result<Socket> ConnectTo(const std::string& host, uint16_t port,
                         std::chrono::steady_clock::time_point deadline) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(ErrnoMessage("socket"));
  Socket sock(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Status::IoError(ErrnoMessage("fcntl(O_NONBLOCK)"));
  }
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    if (errno == ECONNREFUSED) {
      return Status::Unavailable("connection refused by " + host + ":" +
                                 std::to_string(port));
    }
    return Status::IoError(ErrnoMessage("connect"));
  }
  if (rc != 0) {
    // Await writability = connect completion (or failure via SO_ERROR).
    for (;;) {
      pollfd pfd{fd, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, MillisUntil(deadline));
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(ErrnoMessage("poll(connect)"));
      }
      if (ready > 0) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        return Status::DeadlineExceeded("connect to " + host + ":" +
                                        std::to_string(port) + " timed out");
      }
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      return Status::IoError(ErrnoMessage("getsockopt(SO_ERROR)"));
    }
    if (err != 0) {
      if (err == ECONNREFUSED) {
        return Status::Unavailable("connection refused by " + host + ":" +
                                   std::to_string(port));
      }
      return Status::IoError(std::string("connect: ") + std::strerror(err));
    }
  }
  if (::fcntl(fd, F_SETFL, flags) != 0) {
    return Status::IoError(ErrnoMessage("fcntl(restore flags)"));
  }
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Status::IoError(ErrnoMessage("setsockopt(TCP_NODELAY)"));
  }
  return sock;
}

Status WriteAll(const Socket& socket, const uint8_t* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
#if defined(MSG_NOSIGNAL)
    const ssize_t n =
        ::send(socket.fd(), data + sent, len - sent, MSG_NOSIGNAL);
#else
    const ssize_t n = ::send(socket.fd(), data + sent, len - sent, 0);
#endif
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET || errno == ENOTCONN) {
        return Status::Unavailable(ErrnoMessage("send: peer gone"));
      }
      return Status::IoError(ErrnoMessage("send"));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadFull(const Socket& socket, uint8_t* data, size_t len,
                size_t* got) {
  while (*got < len) {
    const ssize_t n = ::recv(socket.fd(), data + *got, len - *got, 0);
    if (n == 0) {
      return Status::Unavailable("recv: connection closed by peer");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("recv timed out");
      }
      if (errno == ECONNRESET || errno == ENOTCONN || errno == EBADF) {
        return Status::Unavailable(ErrnoMessage("recv: peer gone"));
      }
      return Status::IoError(ErrnoMessage("recv"));
    }
    *got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadAll(const Socket& socket, uint8_t* data, size_t len) {
  size_t got = 0;
  return ReadFull(socket, data, len, &got);
}

Status SetRecvTimeout(const Socket& socket, double seconds) {
  timeval tv{};
  if (seconds > 0.0) {
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(
                                              tv.tv_sec)) * 1e6);
  }
  if (::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) !=
      0) {
    return Status::IoError(ErrnoMessage("setsockopt(SO_RCVTIMEO)"));
  }
  return Status::OK();
}

void ShutdownBoth(const Socket& socket) {
  if (socket.valid()) {
    // ENOTCONN here is routine (peer already gone); nothing to recover.
    const int rc = ::shutdown(socket.fd(), SHUT_RDWR);
    (void)rc;
  }
}

Status SetCloseOnExec(const Socket& socket, bool enabled) {
  const int flags = ::fcntl(socket.fd(), F_GETFD, 0);
  if (flags < 0) return Status::IoError(ErrnoMessage("fcntl(F_GETFD)"));
  const int updated = enabled ? (flags | FD_CLOEXEC) : (flags & ~FD_CLOEXEC);
  if (::fcntl(socket.fd(), F_SETFD, updated) != 0) {
    return Status::IoError(ErrnoMessage("fcntl(F_SETFD)"));
  }
  return Status::OK();
}

#else  // !SQM_HAVE_POSIX_SOCKETS

namespace {
Status NoSockets() {
  return Status::Unimplemented(
      "TCP transport requires POSIX sockets on this platform");
}
}  // namespace

Result<Socket> ListenOn(const std::string&, uint16_t) { return NoSockets(); }
Result<uint16_t> LocalPort(const Socket&) { return NoSockets(); }
Result<Socket> AcceptWithDeadline(const Socket&,
                                  std::chrono::steady_clock::time_point) {
  return NoSockets();
}
Result<Socket> ConnectTo(const std::string&, uint16_t,
                         std::chrono::steady_clock::time_point) {
  return NoSockets();
}
Status WriteAll(const Socket&, const uint8_t*, size_t) { return NoSockets(); }
Status ReadAll(const Socket&, uint8_t*, size_t) { return NoSockets(); }
Status ReadFull(const Socket&, uint8_t*, size_t, size_t*) {
  return NoSockets();
}
Status SetRecvTimeout(const Socket&, double) { return NoSockets(); }
Status SetCloseOnExec(const Socket&, bool) { return NoSockets(); }
void ShutdownBoth(const Socket&) {}

#endif  // SQM_HAVE_POSIX_SOCKETS

}  // namespace sqm::net
