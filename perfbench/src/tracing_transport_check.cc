// perfbench_transport_check: proves that the benchmark's TracingTransport
// decorator changes neither the release nor the traffic accounting. One
// session_tcp release runs three times over fresh loopback TCP meshes —
// plain TcpTransport, decorated with tracing off, decorated with tracing
// on — and every party's released integers and its TcpTransport's
// TransportStats (all counters; the wall clock excluded) must match the
// plain run exactly. Exit code 0 on success.
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/logging.h"
#include "core/party_sqm.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "tracing_transport.h"
#include "workloads.h"

namespace {

struct PartyResult {
  std::string error;
  std::vector<int64_t> raw;
  std::string stats;
};

/// Every TransportStats field except wall_seconds, as text.
std::string StatsText(const sqm::TransportStats& s) {
  std::ostringstream os;
  const auto totals = [&os](const sqm::NetworkStats& t) {
    os << t.messages << "/" << t.field_elements << "/" << t.rounds << "/"
       << t.wire_bytes << ";";
  };
  os << s.num_parties << ";";
  totals(s.totals);
  for (const sqm::ChannelStats& c : s.channels) {
    os << c.from << ">" << c.to << ":" << c.messages << "/"
       << c.field_elements << "/" << c.wire_bytes << ";";
  }
  for (const sqm::PhaseStats& p : s.phases) {
    os << p.phase << "=";
    totals(p.traffic);
  }
  os << s.drops_injected << "/" << s.delays_injected << "/"
     << s.reorders_injected << "/" << s.receive_timeouts << "/" << s.retries
     << "/" << s.crash_losses << "/" << s.simulated_seconds;
  return os.str();
}

std::vector<PartyResult> RunOnce(sqm::DeploymentConfig config,
                                 bool decorate) {
  const size_t n = config.parties.size();
  std::vector<PartyResult> results(n);
  sqm::Result<std::vector<int>> fds = perfbench::BindListeners(&config);
  if (!fds.ok()) {
    results[0].error = fds.status().ToString();
    return results;
  }
  std::vector<std::thread> threads;
  for (size_t p = 0; p < n; ++p) {
    threads.emplace_back([&, p] {
      sqm::Result<std::unique_ptr<sqm::TcpTransport>> tcp =
          perfbench::CreateParty(config, p, fds.ValueOrDie()[p]);
      if (!tcp.ok()) {
        results[p].error = tcp.status().ToString();
        return;
      }
      sqm::TcpTransport* inner = tcp.ValueOrDie().get();
      perfbench::TracingTransport traced(inner);
      sqm::Transport* transport =
          decorate ? static_cast<sqm::Transport*>(&traced) : inner;
      sqm::Result<sqm::SqmReport> report =
          sqm::RunPartySqm(config, p, transport);
      if (report.ok()) {
        results[p].raw = report.ValueOrDie().raw;
      } else {
        results[p].error = report.status().ToString();
      }
      results[p].stats = StatsText(inner->Snapshot());
      inner->Shutdown();
    });
  }
  for (std::thread& thread : threads) thread.join();
  return results;
}

}  // namespace

int main() {
  sqm::Logger::SetLevel(sqm::LogLevel::kError);
  sqm::obs::SetEnabled(false);

  sqm::Result<perfbench::LrDeployment> deployment =
      perfbench::PrepareLrDeployment(/*seed=*/11);
  if (!deployment.ok()) {
    std::cerr << "deployment: " << deployment.status().ToString() << "\n";
    return 1;
  }
  const sqm::DeploymentConfig config =
      perfbench::LrReleaseConfig(deployment.ValueOrDie(), /*index=*/0);

  const std::vector<PartyResult> plain = RunOnce(config, false);
  bool ok = true;
  for (const PartyResult& r : plain) {
    if (!r.error.empty()) {
      std::cerr << "plain run failed: " << r.error << "\n";
      ok = false;
    }
  }
  struct Variant {
    const char* name;
    bool tracing;
  };
  for (const Variant variant : {Variant{"decorated, tracing off", false},
                                Variant{"decorated, tracing on", true}}) {
    sqm::obs::SetEnabled(variant.tracing);
    const std::vector<PartyResult> decorated = RunOnce(config, true);
    sqm::obs::SetEnabled(false);
    sqm::obs::Tracer::Global().Clear();
    for (size_t p = 0; p < plain.size(); ++p) {
      const PartyResult& a = plain[p];
      const PartyResult& b = decorated[p];
      const bool same = b.error.empty() && a.raw == b.raw &&
                        a.raw == plain[0].raw && a.stats == b.stats;
      std::cout << variant.name << ", party " << p << ": "
                << (same ? "identical" : "DIFFERENT") << "\n";
      if (!same) {
        std::cout << "  plain:     " << a.stats << "\n  decorated: "
                  << b.stats << (b.error.empty() ? "" : "\n  error: ")
                  << b.error << "\n";
        ok = false;
      }
    }
  }
  std::cout << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}
