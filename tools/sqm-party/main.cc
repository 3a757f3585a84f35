// sqm-party: one party of a networked SQM deployment.
//
// Runs party --party of the deployment described by --config: connects the
// TCP mesh, executes this party's side of the full mechanism (quantize own
// columns, sample own noise, BGW over TCP), and writes this party's
// SqmReport as JSON. Every party of a run — and the coordinator's
// in-process comparison — releases bit-identical values.
//
//   sqm-party --config=deploy.json --party=2
//       [--listen-fd=7] [--report=party2.json] [--trace=party2.trace.json]
//       [--crash-at-mul-level=L] [--checkpoint-dir=DIR] [--incarnation=K]
//       [--telemetry-port=P] [--telemetry-host=H]
//
// --listen-fd adopts a pre-bound listening socket (the coordinator binds
// every roster port before forking so no party can lose a bind race).
// --crash-at-mul-level raises SIGKILL when multiplication level L begins —
// a deterministic stand-in for `kill -9` mid-protocol, used by the
// resilience tests.
// --checkpoint-dir enables durable checkpoints (and, with the config's
// recovery fields, supervised rejoin); --incarnation=K marks this process
// as the K-th supervised respawn, making it resume from its checkpoint.
// --telemetry-port connects the live telemetry channel back to the
// coordinator: clock-offset probes, periodic state snapshots, and (via the
// periodic durable trace rewrite) pre-crash spans that survive SIGKILL.
// --trace is also the crash dump: fatal exits and SIGTERM flush the trace
// there (docs/OBSERVABILITY.md).
// See docs/DEPLOYMENT.md.

#include <charconv>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/json.h"
#include "core/party_sqm.h"
#include "core/report_io.h"
#include "core/status.h"
#include "net/tcp/party_config.h"
#include "net/tcp/tcp_transport.h"
#include "net/tcp/telemetry.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace {

struct Args {
  std::string config_path;
  long party = -1;
  int listen_fd = -1;
  std::string report_path;
  std::string trace_path;
  std::string telemetry_host = "127.0.0.1";
  long telemetry_port = 0;
  long crash_at_mul_level = -1;
  std::string checkpoint_dir;
  long incarnation = 0;
};

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* out) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

/// Matches --name=VALUE and parses the whole VALUE as a decimal integer
/// ("1x" and "abc" are malformed). A malformed VALUE still matches but sets
/// *malformed, so the caller prints usage and exits 2.
bool ParseLongFlag(const std::string& arg, const std::string& name,
                   long* out, bool* malformed) {
  std::string text;
  if (!ParseFlag(arg, name, &text)) return false;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if (ec != std::errc() || ptr != end) *malformed = true;
  return true;
}

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --config=FILE --party=N [--listen-fd=FD] [--report=FILE]"
               " [--trace=FILE] [--crash-at-mul-level=L]"
               " [--checkpoint-dir=DIR] [--incarnation=K]"
               " [--telemetry-port=P] [--telemetry-host=H]\n";
  return 2;
}

/// splitmix64 finalizer: spreads (run_id, party, incarnation) into the
/// trace/span-id namespaces.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Supervisor-initiated shutdown: flush the trace as the fatal path would,
/// then exit with the conventional 128+15. Not strictly async-signal-safe
/// (the writer allocates), but SIGTERM here only ever means "the
/// supervisor is done with you" — the alternative is losing the timeline
/// of a cleanly-terminated party.
extern "C" void HandleSigTerm(int) {
  sqm::obs::Tracer::Global().FlushForCrash();
  _exit(143);
}

/// The telemetry snapshot document (docs/OBSERVABILITY.md "Snapshot
/// schema"). Live snapshots read the transport's running totals; the final
/// snapshot reads the report's frozen totals so the fleet view reconciles
/// exactly with party_<j>.json.
std::string BuildSnapshot(uint64_t run_id, size_t party,
                          uint32_t incarnation, const std::string& phase,
                          const sqm::NetworkStats& net, bool final_doc) {
  sqm::JsonWriter w;
  w.BeginObject();
  w.Field("run_id", run_id);
  w.Field("party", static_cast<uint64_t>(party));
  w.Field("incarnation", static_cast<uint64_t>(incarnation));
  w.Field("final", final_doc);
  w.Field("phase", phase);
  w.Key("net");
  w.BeginObject();
  w.Field("messages", net.messages);
  w.Field("field_elements", net.field_elements);
  w.Field("wire_bytes", net.wire_bytes);
  w.Field("rounds", net.rounds);
  w.EndObject();
  const std::vector<sqm::obs::LedgerEntry> spends =
      sqm::obs::PrivacyLedger::Global().Entries();
  w.Field("ledger_epsilon",
          spends.empty() ? 0.0 : spends.back().cumulative_epsilon);
  // The metrics registry rides along whole.
  w.Key("metrics");
  std::string doc = w.str();
  doc += sqm::obs::Registry::Global().SnapshotJson();
  doc += "}";
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    long fd = -1;
    bool malformed = false;
    if (ParseFlag(arg, "config", &args.config_path) ||
        ParseLongFlag(arg, "party", &args.party, &malformed) ||
        ParseFlag(arg, "report", &args.report_path) ||
        ParseFlag(arg, "trace", &args.trace_path) ||
        ParseFlag(arg, "telemetry-host", &args.telemetry_host) ||
        ParseLongFlag(arg, "telemetry-port", &args.telemetry_port,
                      &malformed) ||
        ParseLongFlag(arg, "crash-at-mul-level", &args.crash_at_mul_level,
                      &malformed) ||
        ParseFlag(arg, "checkpoint-dir", &args.checkpoint_dir) ||
        ParseLongFlag(arg, "incarnation", &args.incarnation, &malformed)) {
      if (!malformed) continue;
    } else if (ParseLongFlag(arg, "listen-fd", &fd, &malformed)) {
      args.listen_fd = static_cast<int>(fd);
      if (!malformed) continue;
    }
    std::cerr << (malformed ? "malformed flag value: " : "unknown flag: ")
              << arg << "\n";
    return Usage(argv[0]);
  }
  if (args.config_path.empty() || args.party < 0 || args.incarnation < 0) {
    return Usage(argv[0]);
  }

  std::ifstream config_file(args.config_path);
  if (!config_file) {
    std::cerr << "cannot read config " << args.config_path << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << config_file.rdbuf();

  sqm::Result<sqm::DeploymentConfig> parsed =
      sqm::ParseDeploymentConfig(buffer.str());
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    return 1;
  }
  const sqm::DeploymentConfig& config = parsed.ValueOrDie();
  const size_t me = static_cast<size_t>(args.party);
  const auto incarnation = static_cast<uint32_t>(args.incarnation);

  // The fleet-wide runtime kill switch: with obs_enabled=false this
  // process runs with zero observability (no spans, no metrics, no
  // telemetry stream, context-free frames) and must release
  // bit-identical values.
  if (!config.obs_enabled) sqm::obs::SetEnabled(false);

  if (sqm::obs::Enabled()) {
    // Span ids must stay unique across the fleet AND across supervised
    // restarts: merged traces key their flow arrows by id. Each
    // (party, incarnation) gets its own 2^40-id slab.
    sqm::obs::Tracer::SetSpanIdNamespace(
        ((static_cast<uint64_t>(me) + 1) << 48) |
        (static_cast<uint64_t>(incarnation & 0xFF) << 40) | 1);
    sqm::obs::Tracer::SetTraceId(Mix64(config.run_id) | 1);
    if (!args.trace_path.empty()) {
      // Fatal exits and SIGTERM flush to the SAME file the coordinator
      // merges, so a crashed incarnation still contributes its spans.
      sqm::obs::Tracer::Global().SetCrashDumpPath(args.trace_path);
    }
  }
  std::signal(SIGTERM, HandleSigTerm);

  sqm::Result<std::unique_ptr<sqm::net::TcpTransport>> transport =
      sqm::net::TcpTransport::Create(sqm::TcpOptionsFromDeployment(
          config, me, args.listen_fd, incarnation));
  if (!transport.ok()) {
    std::cerr << "party " << me
              << ": transport setup failed: " << transport.status().ToString()
              << "\n";
    return 1;
  }
  sqm::net::TcpTransport* wire = transport.ValueOrDie().get();

  // Baseline durable trace before any protocol work: even a party killed
  // in its very first phase leaves this incarnation's file for the
  // coordinator's merge. Written before the telemetry client starts, whose
  // tick keeps rewriting it after: one thread writes the file at a time.
  if (sqm::obs::Enabled() && !args.trace_path.empty()) {
    sqm::obs::Tracer::Global().WriteChromeTraceFile(args.trace_path);
  }

  // Live telemetry channel back to the coordinator (observational only: a
  // refused connection or a dead coordinator never stops the protocol).
  sqm::net::TelemetryClient* telemetry = nullptr;
  if (sqm::obs::Enabled() && args.telemetry_port > 0) {
    sqm::net::TelemetryClientOptions opts;
    opts.host = args.telemetry_host;
    opts.port = static_cast<uint16_t>(args.telemetry_port);
    opts.session_key = config.session_key;
    opts.run_id = config.run_id;
    opts.party = static_cast<uint32_t>(me);
    opts.incarnation = incarnation;
    opts.snapshot_interval_seconds =
        config.telemetry_snapshot_interval_seconds;
    const uint64_t run_id = config.run_id;
    opts.build_snapshot = [wire, run_id, me, incarnation] {
      return BuildSnapshot(run_id, me, incarnation, wire->phase(),
                           wire->stats(), /*final_doc=*/false);
    };
    if (!args.trace_path.empty()) {
      const std::string trace_path = args.trace_path;
      opts.on_tick = [trace_path] {
        // Durable trace: rewrite every interval so a SIGKILL mid-protocol
        // still leaves this incarnation's pre-crash spans on disk for the
        // coordinator's merge.
        sqm::obs::Tracer::Global().WriteChromeTraceFile(trace_path);
      };
    }
    telemetry = new sqm::net::TelemetryClient(std::move(opts));
    const sqm::Status started = telemetry->Start();
    if (!started.ok()) {
      std::cerr << "party " << me << ": telemetry disabled: "
                << started.ToString() << "\n";
    }
  }

  sqm::PartySqmHooks hooks;
  hooks.checkpoint_dir = args.checkpoint_dir;
  hooks.incarnation = incarnation;
  if (args.crash_at_mul_level >= 0) {
    const size_t crash_level = static_cast<size_t>(args.crash_at_mul_level);
    hooks.mul_level_hook = [crash_level](size_t level) {
      if (level == crash_level) {
        // The resilience tests' deterministic `kill -9`: die mid-protocol
        // with sub-shares half-sent, no goodbye frame, no cleanup.
        std::raise(SIGKILL);
      }
    };
  }

  sqm::Result<sqm::SqmReport> report =
      sqm::RunPartySqm(config, me, wire, hooks);
  wire->Shutdown();

  if (telemetry != nullptr) {
    // Final snapshot from the report's FROZEN totals (the transport is
    // shut down), so fleet_metrics.json reconciles byte-for-byte with
    // this party's own report. Stopping joins the tick thread before the
    // final trace write below.
    telemetry->Stop(BuildSnapshot(
        config.run_id, me, incarnation, "done",
        report.ok() ? report.ValueOrDie().transport.totals : wire->stats(),
        /*final_doc=*/true));
    delete telemetry;
  }
  if (!args.trace_path.empty() && sqm::obs::Enabled()) {
    if (!sqm::obs::Tracer::Global().WriteChromeTraceFile(args.trace_path)) {
      std::cerr << "party " << me << ": cannot write trace "
                << args.trace_path << "\n";
    }
  }
  if (!report.ok()) {
    std::cerr << "party " << me << ": " << report.status().ToString()
              << "\n";
    return 1;
  }

  const std::string json = sqm::SqmReportToJson(report.ValueOrDie());
  if (args.report_path.empty()) {
    std::cout << json << "\n";
  } else {
    std::ofstream out(args.report_path, std::ios::trunc);
    out << json;
    if (!out) {
      std::cerr << "party " << me << ": cannot write report "
                << args.report_path << "\n";
      return 1;
    }
  }
  return 0;
}
