// Observability overhead: the same BGW-backed SQM release measured three
// ways — instrumentation collecting (tracer + ledger live), instrumentation
// killed at run time (obs::SetEnabled(false): every span and ledger
// forward checks one relaxed atomic and bails), and, when the build was
// configured with -DSQM_OBS=OFF, the compile-time zero. The claim being
// checked is the PR's acceptance bar: <= 5% wall-clock overhead with
// collection on, ~0% with the kill switch.
//
// Two sections: the in-process evaluator (pure collection cost), then a
// tcp-localhost mode — every party a thread over a real loopback mesh, the
// sqm-party wire path — where the traced run also pays the trace-context
// frame-header bytes and the per-frame net.send/net.recv spans. Killed and
// traced reps alternate, and each pair swaps which leg runs first, so
// neither leg always inherits the other's warm caches or (over TCP) its
// TIME_WAIT sockets. Each leg reports its median with the p25 and p75 of
// its reps. Output is the usual table plus a JSON line per row;
// --json=FILE archives all rows as one machine-readable record
// (scripts/check.sh keeps it as BENCH_obs_overhead.json).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/party_sqm.h"
#include "core/sqm.h"
#include "math/stats.h"
#include "net/tcp/party_config.h"
#include "net/tcp/socket.h"
#include "net/tcp/tcp_transport.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sampling/rng.h"

namespace {

/// One leg's wall-clock seconds over its reps.
struct Quartiles {
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
};

Quartiles QuartilesOf(const std::vector<double>& seconds) {
  return {sqm::Quantile(seconds, 0.25), sqm::Quantile(seconds, 0.5),
          sqm::Quantile(seconds, 0.75)};
}

struct PairedLegs {
  bool ok = true;
  Quartiles killed;
  Quartiles traced;

  double Overhead() const {
    return killed.p50 > 0.0 ? (traced.p50 - killed.p50) / killed.p50 : 0.0;
  }
};

/// Runs `reps` (killed, traced) pairs, the traced leg first in every odd
/// pair. `timed_run(traced)` performs one rep with obs::Enabled() already
/// set to `traced` and returns its wall seconds, or a negative value on
/// failure, which ends the measurement with ok = false. Collection is off
/// again on return.
template <typename TimedRun>
PairedLegs MeasurePairs(int reps, TimedRun timed_run) {
  std::vector<double> killed;
  std::vector<double> traced;
  PairedLegs legs;
  for (int r = 0; r < reps && legs.ok; ++r) {
    for (int leg = 0; leg < 2 && legs.ok; ++leg) {
      const bool trace = (leg == 0) == (r % 2 == 1);
      sqm::obs::SetEnabled(trace);
      // Fresh buffers each rep so instrumented runs pay steady-state
      // collection cost, not buffer-growth amortization artifacts.
      sqm::obs::Tracer::Global().Clear();
      const double seconds = timed_run(trace);
      legs.ok = seconds >= 0.0;
      (trace ? traced : killed).push_back(seconds);
    }
  }
  sqm::obs::SetEnabled(false);
  if (legs.ok) {
    legs.killed = QuartilesOf(killed);
    legs.traced = QuartilesOf(traced);
  }
  return legs;
}

/// The JSON fields both sections share: each leg's median (the
/// `*_seconds` keys) with its p25/p75, and the overhead of the medians.
std::string LegsJson(const PairedLegs& legs) {
  char fields[320];
  std::snprintf(fields, sizeof(fields),
                "\"killed_seconds\":%.9f,\"killed_p25\":%.9f,"
                "\"killed_p75\":%.9f,\"traced_seconds\":%.9f,"
                "\"traced_p25\":%.9f,\"traced_p75\":%.9f,"
                "\"overhead\":%.6f",
                legs.killed.p50, legs.killed.p25, legs.killed.p75,
                legs.traced.p50, legs.traced.p25, legs.traced.p75,
                legs.Overhead());
  return fields;
}

/// "median [p25, p75]" for the printed tables.
std::string LegText(const Quartiles& q) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.6f [%.6f, %.6f]", q.p50, q.p25,
                q.p75);
  return text;
}

struct TcpRun {
  bool ok = false;
  double wall_seconds = 0.0;
  std::vector<int64_t> raw;
  std::string error;
};

/// One full networked release: every party of `config` as a thread over a
/// pre-bound loopback mesh (the coordinator's race-free setup). The caller
/// sets the obs state beforehand; a traced run therefore carries trace
/// context in every frame header, a killed run sends bare v3 frames.
TcpRun RunTcpLocalhost(sqm::DeploymentConfig config) {
  TcpRun result;
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
      result.error =
          "party " + std::to_string(i) + " released different values";
      return result;
    }
  }
  result.ok = true;
  result.raw = reports[0].raw;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sqm;
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);

  const int reps = config.reps > 0 ? config.reps : (config.paper_scale ? 9 : 5);
  const size_t m = config.paper_scale ? 200 : 60;
  const std::vector<size_t> dims =
      config.paper_scale ? std::vector<size_t>{4, 8, 16}
                         : std::vector<size_t>{3, 5, 8};

  bench::PrintHeader(
      "Observability overhead: traced vs kill-switched SQM release "
      "(BGW, m=" + std::to_string(m) + ", " + std::to_string(reps) +
          " interleaved pairs, median [p25, p75])",
      "overhead = (traced - killed) / killed on the medians; acceptance "
      "bar is <= 5%");

#ifdef SQM_OBS_DISABLED
  std::printf("\nBuilt with -DSQM_OBS=OFF: Enabled() is a compile-time "
              "false; 'traced' below exercises the stubbed-out path.\n");
#endif

  std::vector<std::string> json_rows;
  auto record = [&json_rows](const std::string& row) {
    std::printf("JSON %s\n", row.c_str());
    json_rows.push_back(row);
  };

  std::printf("\n%-6s %-32s %-32s %-10s %-10s %-10s\n", "n", "killed (s)",
              "traced (s)", "overhead", "events", "match");
  bench::PrintRule();

  for (size_t n : dims) {
    const PolynomialVector f = PolynomialVector::OuterProduct(n);
    Matrix x(m, n);
    Rng rng(11 * n + 3);
    for (auto& v : x.data()) v = (rng.NextDouble() - 0.5) * 0.8;

    SqmOptions options;
    options.gamma = 64.0;
    options.mu = 16.0;
    options.seed = 42;
    options.backend = MpcBackend::kBgw;
    options.quantize_coefficients = false;

    const PairedLegs legs = MeasurePairs(reps, [&](bool) {
      const auto start = std::chrono::steady_clock::now();
      const SqmReport report =
          SqmEvaluator(options).Evaluate(f, x).ValueOrDie();
      const auto stop = std::chrono::steady_clock::now();
      if (report.raw.empty()) std::abort();  // Keep the work observable.
      return std::chrono::duration<double>(stop - start).count();
    });

    const SqmReport dark = SqmEvaluator(options).Evaluate(f, x).ValueOrDie();
    obs::SetEnabled(true);
    obs::Tracer::Global().Clear();
    const SqmReport lit = SqmEvaluator(options).Evaluate(f, x).ValueOrDie();
    const uint64_t events = obs::Tracer::Global().num_events();
    obs::SetEnabled(false);

    // Same seed, same options: instrumentation must not perturb the
    // released integers.
    const bool match = lit.raw == dark.raw;

    std::printf("%-6zu %-32s %-32s %-9.2f%% %-10llu %-10s\n", n,
                LegText(legs.killed).c_str(), LegText(legs.traced).c_str(),
                legs.Overhead() * 100.0,
                static_cast<unsigned long long>(events),
                match ? "yes" : "NO");
    record("{\"bench\":\"obs_overhead\",\"mode\":\"inprocess\",\"n\":" +
           std::to_string(n) + ",\"m\":" + std::to_string(m) + "," +
           LegsJson(legs) + ",\"trace_events\":" + std::to_string(events) +
           ",\"match\":" + (match ? "true" : "false") + "}");
  }

  // tcp-localhost: the sqm-party wire path. The traced leg pays spans AND
  // the 16 trace-context bytes per frame; the killed leg ships bare v3
  // frames — and both must release the same integers (the
  // telemetry-never-changes-results invariant, here at bench scale).
  if (net::TcpSupported()) {
    bench::PrintHeader(
        "tcp-localhost: " + std::to_string(reps) +
            " interleaved pairs, 3 parties as threads over loopback sockets",
        "traced leg also carries trace context in every frame header");
    std::printf("\n%-6s %-32s %-32s %-10s %-10s\n", "n", "killed (s)",
                "traced (s)", "overhead", "match");
    bench::PrintRule();

    DeploymentConfig deployment;
    deployment.run_id = 77;
    deployment.session_key = 0x0b5beac0ffee;
    deployment.parties = {{"127.0.0.1", 0}, {"127.0.0.1", 0},
                          {"127.0.0.1", 0}};
    deployment.rows = config.paper_scale ? 200 : 48;
    deployment.data_seed = 5;
    deployment.polynomial = "x0*x1; x1*x2; x0*x2";
    deployment.gamma = 64.0;
    deployment.mu = 16.0;
    deployment.seed = 42;
    deployment.quantize_coefficients = false;

    TcpRun killed_run;
    TcpRun traced_run;
    const PairedLegs legs = MeasurePairs(reps, [&](bool traced) {
      // A nonzero trace id is what puts trace context on the wire.
      obs::Tracer::SetTraceId(traced ? (0x0b5ebe4c51ULL | 1) : 0);
      TcpRun& run = traced ? traced_run : killed_run;
      run = RunTcpLocalhost(deployment);
      return run.ok ? run.wall_seconds : -1.0;
    });
    obs::Tracer::SetTraceId(0);

    if (!legs.ok) {
      std::printf("tcp-localhost run failed: %s\n",
                  (!killed_run.ok ? killed_run : traced_run).error.c_str());
    } else {
      const bool tcp_match = killed_run.raw == traced_run.raw;
      std::printf("%-6zu %-32s %-32s %-9.2f%% %-10s\n",
                  deployment.parties.size(), LegText(legs.killed).c_str(),
                  LegText(legs.traced).c_str(), legs.Overhead() * 100.0,
                  tcp_match ? "yes" : "NO");
      record("{\"bench\":\"obs_overhead\",\"mode\":\"tcp-localhost\","
             "\"n\":" +
             std::to_string(deployment.parties.size()) +
             ",\"m\":" + std::to_string(deployment.rows) + "," +
             LegsJson(legs) + ",\"match\":" + (tcp_match ? "true" : "false") +
             "}");
    }
  }

  if (!config.json_path.empty()) {
    std::FILE* out = std::fopen(config.json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", config.json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\"bench\":\"obs_overhead\",\"rows\":[");
    for (size_t i = 0; i < json_rows.size(); ++i) {
      std::fprintf(out, "%s%s", i == 0 ? "" : ",", json_rows[i].c_str());
    }
    std::fprintf(out, "]}\n");
    std::fclose(out);
  }

  obs::Tracer::Global().Clear();
  std::printf("\nNote: the kill switch leaves report-facing data (transport\n"
              "stats, the privacy ledger inside SqmReport) untouched; only\n"
              "telemetry collection stops.\n");
  return 0;
}
