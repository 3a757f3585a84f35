// Runs n parties in one process, one thread each, every party over its own
// TcpTransport on a loopback mesh: the transport sqm-party runs, with the
// coordinator's pre-bound port-0 listeners handed over by fd, so no run
// can lose a bind race. The party-per-thread tests of the driver-vs-party
// equivalence suites build on it.

#ifndef SQM_TESTS_LOOPBACK_MESH_H_
#define SQM_TESTS_LOOPBACK_MESH_H_

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/status.h"
#include "net/stats.h"
#include "net/tcp/socket.h"
#include "net/tcp/tcp_transport.h"

namespace sqm {
namespace testing {

/// How one party's run ended, and the traffic its transport counted.
struct LoopbackParty {
  Status status;
  TransportStats stats;
};

/// Binds one listener per entry of `options.peers` (their ports are
/// replaced), starts one thread per party with its own TcpTransport built
/// from `options` and runs `body(me, transport)`. Each thread snapshots
/// its transport and shuts it down as soon as its body returns, so a party
/// that returns early says goodbye and its peers read kUnavailable from
/// it. Returns once every thread has joined, indexed by party.
inline std::vector<LoopbackParty> RunOnLoopback(
    TcpTransportOptions options,
    const std::function<Status(size_t me, Transport* transport)>& body) {
  const size_t n = options.peers.size();
  std::vector<LoopbackParty> parties(n);
  std::vector<net::Socket> listeners;
  for (size_t i = 0; i < n; ++i) {
    Result<net::Socket> listener = net::ListenOn("127.0.0.1", 0);
    Result<uint16_t> port =
        listener.ok() ? net::LocalPort(listener.ValueOrDie())
                      : Result<uint16_t>(listener.status());
    if (!port.ok()) {
      for (LoopbackParty& party : parties) party.status = port.status();
      return parties;
    }
    options.peers[i] = {"127.0.0.1", port.ValueOrDie()};
    listeners.push_back(std::move(listener).ValueOrDie());
  }
  std::vector<std::thread> threads;
  for (size_t me = 0; me < n; ++me) {
    TcpTransportOptions mine = options;
    mine.local_party = me;
    mine.listen_fd = listeners[me].Release();
    threads.emplace_back([&body, &parties, me, mine] {
      Result<std::unique_ptr<TcpTransport>> transport =
          TcpTransport::Create(mine);
      if (!transport.ok()) {
        parties[me].status = transport.status();
        return;
      }
      parties[me].status = body(me, transport.ValueOrDie().get());
      parties[me].stats = transport.ValueOrDie()->Snapshot();
      transport.ValueOrDie()->Shutdown();
    });
  }
  for (std::thread& thread : threads) thread.join();
  return parties;
}

/// Options for an in-process mesh of `n` parties under one session.
inline TcpTransportOptions LoopbackOptions(size_t n,
                                           double receive_timeout_seconds) {
  TcpTransportOptions options;
  options.peers.resize(n);
  options.session_key = 0x5eed;
  options.run_id = 1;
  options.receive_timeout_seconds = receive_timeout_seconds;
  return options;
}

}  // namespace testing
}  // namespace sqm

#endif  // SQM_TESTS_LOOPBACK_MESH_H_
