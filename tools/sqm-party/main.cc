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
//
// --listen-fd adopts a pre-bound listening socket (the coordinator binds
// every roster port before forking so no party can lose a bind race).
// --crash-at-mul-level raises SIGKILL when multiplication level L begins —
// a deterministic stand-in for `kill -9` mid-protocol, used by the
// resilience tests.
// --checkpoint-dir enables durable checkpoints (and, with the config's
// recovery fields, supervised rejoin); --incarnation=K marks this process
// as the K-th supervised respawn, making it resume from its checkpoint.
// --trace names the durable trace: a tick thread rewrites it every 0.25 s
// so pre-crash spans survive SIGKILL, and fatal exits and SIGTERM flush it
// there too (docs/OBSERVABILITY.md).
// See docs/DEPLOYMENT.md.

#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "core/party_sqm.h"
#include "core/report_io.h"
#include "core/status.h"
#include "core/sync.h"
#include "net/tcp/party_config.h"
#include "net/tcp/tcp_transport.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace {

struct Args {
  std::string config_path;
  long party = -1;
  int listen_fd = -1;
  std::string report_path;
  std::string trace_path;
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

/// Matches --name=VALUE and parses the whole VALUE as a decimal integer in
/// [lo, hi] ("1x", "abc" and out-of-range values are malformed, so no flag
/// wraps through a narrowing cast). A malformed VALUE still matches but
/// sets *malformed, so the caller prints usage and exits 2.
bool ParseLongFlag(const std::string& arg, const std::string& name, long lo,
                   long hi, long* out, bool* malformed) {
  std::string text;
  if (!ParseFlag(arg, name, &text)) return false;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if (ec != std::errc() || ptr != end || *out < lo || *out > hi) {
    *malformed = true;
  }
  return true;
}

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --config=FILE --party=N [--listen-fd=FD] [--report=FILE]"
               " [--trace=FILE] [--crash-at-mul-level=L]"
               " [--checkpoint-dir=DIR] [--incarnation=K]\n";
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

/// The durable trace's tick: rewrites the trace file every 0.25 s until
/// destroyed, so a SIGKILL mid-protocol still leaves this incarnation's
/// pre-crash spans on disk for the coordinator's merge. The destructor
/// joins the thread, so no write of its own overlaps the caller's.
class TraceTicker {
 public:
  explicit TraceTicker(std::string path)
      : path_(std::move(path)), thread_([this] { Run(); }) {}
  TraceTicker(const TraceTicker&) = delete;
  TraceTicker& operator=(const TraceTicker&) = delete;
  ~TraceTicker() {
    {
      sqm::MutexLock lock(mu_);
      stop_ = true;
    }
    wake_.NotifyAll();
    thread_.join();
  }

 private:
  void Run() {
    sqm::MutexLock lock(mu_);
    while (!wake_.WaitUntil(
        mu_, std::chrono::steady_clock::now() + std::chrono::milliseconds(250),
        [this]() SQM_REQUIRES(mu_) { return stop_; })) {
      sqm::obs::Tracer::Global().WriteChromeTraceFile(path_);
    }
  }

  const std::string path_;
  sqm::Mutex mu_;
  sqm::CondVar wake_;
  bool stop_ SQM_GUARDED_BY(mu_) = false;
  std::thread thread_;  ///< Last: starts once the members above exist.
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  constexpr long kLongMax = std::numeric_limits<long>::max();
  constexpr long kU32Max = std::numeric_limits<uint32_t>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    long fd = -1;
    bool malformed = false;
    if (ParseFlag(arg, "config", &args.config_path) ||
        ParseLongFlag(arg, "party", 0, kU32Max, &args.party, &malformed) ||
        ParseFlag(arg, "report", &args.report_path) ||
        ParseFlag(arg, "trace", &args.trace_path) ||
        ParseLongFlag(arg, "crash-at-mul-level", 0, kLongMax,
                      &args.crash_at_mul_level, &malformed) ||
        ParseFlag(arg, "checkpoint-dir", &args.checkpoint_dir) ||
        ParseLongFlag(arg, "incarnation", 0, kU32Max, &args.incarnation,
                      &malformed)) {
      if (!malformed) continue;
    } else if (ParseLongFlag(arg, "listen-fd", 0,
                             std::numeric_limits<int>::max(), &fd,
                             &malformed)) {
      args.listen_fd = static_cast<int>(fd);
      if (!malformed) continue;
    }
    std::cerr << (malformed ? "malformed flag value: " : "unknown flag: ")
              << arg << "\n";
    return Usage(argv[0]);
  }
  if (args.config_path.empty() || args.party < 0) return Usage(argv[0]);

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
  // process runs with zero observability (no spans, no global ledger, no
  // trace file, context-free frames) and must release bit-identical
  // values.
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
  // coordinator's merge. Written before the ticker starts, which keeps
  // rewriting it after: one thread writes the file at a time.
  std::unique_ptr<TraceTicker> ticker;
  if (sqm::obs::Enabled() && !args.trace_path.empty()) {
    sqm::obs::Tracer::Global().WriteChromeTraceFile(args.trace_path);
    ticker = std::make_unique<TraceTicker>(args.trace_path);
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

  ticker.reset();  // Joins the tick thread before the final write below.
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
