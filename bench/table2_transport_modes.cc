// Table II companion: the same SQM release over BGW on two transports —
// the paper's lock-step simulation (deterministic, time = rounds * 0.1 s)
// and real TCP over localhost (one transport per party thread, full mesh
// on loopback sockets — the deployment path sqm-party runs, minus process
// isolation). The released integers are identical in both; what changes
// is the clock being reported.
//
// With --json=FILE the per-row numbers are also written as a JSON record
// (scripts/check.sh archives it as BENCH_transport_modes.json).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/party_sqm.h"
#include "core/sqm.h"
#include "net/tcp/party_config.h"
#include "net/tcp/socket.h"
#include "net/tcp/tcp_transport.h"
#include "poly/parser.h"

namespace {

struct TcpRun {
  bool supported = false;
  bool ok = false;
  double wall_seconds = 0.0;
  sqm::SqmReport report;  ///< Party 0's report.
  std::string error;
};

/// Runs every party of `config` as a thread over a real loopback mesh
/// (pre-bound port-0 listeners, the coordinator's race-free setup) and
/// times the whole run including mesh establishment.
TcpRun RunTcpLocalhost(sqm::DeploymentConfig config) {
  TcpRun result;
  if (!sqm::net::TcpSupported()) return result;
  result.supported = true;

  const size_t n = config.parties.size();
  std::vector<sqm::net::Socket> listeners;
  for (size_t i = 0; i < n; ++i) {
    sqm::Result<sqm::net::Socket> listener =
        sqm::net::ListenOn("127.0.0.1", 0);
    if (!listener.ok()) {
      result.error = listener.status().ToString();
      return result;
    }
    sqm::Result<uint16_t> port = sqm::net::LocalPort(listener.ValueOrDie());
    if (!port.ok()) {
      result.error = port.status().ToString();
      return result;
    }
    config.parties[i].port = port.ValueOrDie();
    listeners.push_back(std::move(listener.ValueOrDie()));
  }

  std::vector<sqm::SqmReport> reports(n);
  std::vector<std::string> errors(n);
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < n; ++i) {
    const int fd = listeners[i].Release();
    threads.emplace_back([&, i, fd] {
      sqm::Result<std::unique_ptr<sqm::TcpTransport>> transport =
          sqm::TcpTransport::Create(
              sqm::TcpOptionsFromDeployment(config, i, fd));
      if (!transport.ok()) {
        errors[i] = transport.status().ToString();
        return;
      }
      sqm::Result<sqm::SqmReport> report =
          sqm::RunPartySqm(config, i, transport.ValueOrDie().get());
      transport.ValueOrDie()->Shutdown();
      if (!report.ok()) {
        errors[i] = report.status().ToString();
        return;
      }
      reports[i] = report.ValueOrDie();
    });
  }
  for (std::thread& thread : threads) thread.join();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  for (size_t i = 0; i < n; ++i) {
    if (!errors[i].empty()) {
      result.error = "party " + std::to_string(i) + ": " + errors[i];
      return result;
    }
    if (reports[i].raw != reports[0].raw) {
      result.error = "party " + std::to_string(i) + " released different values";
      return result;
    }
  }
  result.ok = true;
  result.report = reports[0];
  return result;
}

struct Row {
  size_t n = 0;
  size_t m = 0;
  double lockstep_seconds = 0.0;
  unsigned long long messages = 0;
  bool tcp_supported = false;
  double tcp_seconds = 0.0;
  bool match = false;
};

void WriteJson(const std::string& path, bool paper_scale,
               const std::vector<Row>& rows) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out,
               "{\"bench\":\"transport_modes\",\"scale\":\"%s\","
               "\"modes\":[\"lockstep\",\"tcp-localhost\"],\"rows\":[",
               paper_scale ? "paper" : "small");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(
        out,
        "%s{\"n\":%zu,\"m\":%zu,\"lockstep_simulated_seconds\":%.6f,"
        "\"messages\":%llu,\"tcp_supported\":%s,"
        "\"tcp_wall_seconds\":%.6f,\"match\":%s}",
        i == 0 ? "" : ",", row.n, row.m, row.lockstep_seconds, row.messages,
        row.tcp_supported ? "true" : "false", row.tcp_seconds,
        row.match ? "true" : "false");
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sqm;
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);

  const size_t m = config.paper_scale ? 200 : 40;
  const std::vector<size_t> dims =
      config.paper_scale ? std::vector<size_t>{8, 16, 32}
                         : std::vector<size_t>{4, 8, 12};
  const double gamma = 18.0;
  const double latency = 0.1;  // The paper's per-round latency.

  bench::PrintHeader(
      "Table II companion: lock-step simulated time vs TCP wall-clock (m=" +
          std::to_string(m) + ", gamma=18, latency=0.1 s)",
      "release f_i(x) = x_i * x_{i+1 mod n}; "
      "tcp = n transports on loopback sockets (the sqm-party path)");

  std::printf("\n%-6s %-4s %-14s %-12s %-9s %-6s\n", "n", "P",
              "lockstep (s)", "tcp (s)", "messages", "match");
  bench::PrintRule();

  std::vector<Row> rows;
  for (size_t n : dims) {
    // A pairwise-product release: n output dimensions, one batched Mul
    // round, the message pattern of the paper's quadratic (PCA-style)
    // task. Expressed once as a deployment config so both transports run
    // byte-for-byte the same mechanism: the lock-step run derives its
    // SqmOptions from it, the TCP mode runs it per party.
    DeploymentConfig deployment;
    deployment.run_id = 7000 + n;
    deployment.session_key = 0xbe4c;
    deployment.parties.assign(n, {"127.0.0.1", 0});
    deployment.rows = m;
    deployment.cols = n;
    deployment.data_seed = 7 * n + 1;
    deployment.gamma = gamma;
    deployment.mu = 0.0;
    deployment.max_f_l2 = static_cast<double>(n);
    deployment.quantize_coefficients = false;
    std::string poly;
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) poly += "; ";
      poly += 'x';
      poly += std::to_string(i);
      poly += "*x";
      poly += std::to_string((i + 1) % n);
    }
    deployment.polynomial = poly;

    const Matrix x =
        GenerateDeploymentMatrix(m, n, deployment.data_seed);
    Result<PolynomialVector> f = ParsePolynomialVector(deployment.polynomial);
    Result<SqmOptions> base = SqmOptionsFromDeployment(deployment);
    SqmOptions options = base.ValueOrDie();
    options.network_latency_seconds = latency;

    const SqmReport lockstep =
        SqmEvaluator(options).Evaluate(f.ValueOrDie(), x).ValueOrDie();

    const TcpRun tcp = RunTcpLocalhost(deployment);
    if (tcp.supported && !tcp.ok) {
      std::fprintf(stderr, "tcp run (n=%zu) failed: %s\n", n,
                   tcp.error.c_str());
    }

    Row row;
    row.n = n;
    row.m = m;
    row.lockstep_seconds = lockstep.transport.simulated_seconds;
    row.messages = lockstep.transport.totals.messages;
    row.tcp_supported = tcp.supported;
    row.tcp_seconds = tcp.wall_seconds;
    row.match =
        !tcp.supported || (tcp.ok && tcp.report.raw == lockstep.raw);
    rows.push_back(row);

    char tcp_text[32];
    if (tcp.supported) {
      std::snprintf(tcp_text, sizeof(tcp_text), "%.4f", tcp.wall_seconds);
    } else {
      std::snprintf(tcp_text, sizeof(tcp_text), "n/a");
    }
    std::printf("%-6zu %-4zu %-14.3f %-12s %-9llu %-6s\n", n, n,
                row.lockstep_seconds, tcp_text, row.messages,
                row.match ? "yes" : "NO");
  }

  std::printf(
      "\nReading: the lock-step column charges 0.1 s per synchronous round "
      "(the paper's model); the TCP column is real wall-clock, including "
      "mesh establishment and kernel socket hops. The released integers "
      "match across both transports — bit-exactness is independent of the "
      "execution model.\n");

  if (!config.json_path.empty()) {
    WriteJson(config.json_path, config.paper_scale, rows);
    std::printf("JSON summary written to %s\n", config.json_path.c_str());
  }
  return 0;
}
