// sqm-coordinator: launches an N-process SQM run from one deployment
// config and collects the results.
//
//   sqm-coordinator --config=deploy.json --out-dir=/tmp/run
//       [--compare-lockstep] [--crash-party=N --crash-at-mul-level=L]
//       [--party-bin=PATH] [--timeout-seconds=S]
//   sqm-coordinator --trace-validate=merged_trace.json
//
// The coordinator pre-binds every roster port (resolving port 0 to an
// ephemeral port), writes the resolved config, forks one sqm-party process
// per roster entry (handing each its own pre-bound listener via
// --listen-fd so no party can lose a bind race), waits for them with a
// watchdog, then:
//   - checks that every surviving party released bit-identical raw values,
//   - merges the per-party, per-incarnation trace files into one
//     Perfetto timeline (<out-dir>/merged_trace.json); every party runs on
//     this host and stamps its trace on the same steady clock, so the
//     merge needs no clock offset,
//   - optionally (--compare-lockstep) replays the same config in-process
//     on the deterministic lockstep transport and requires the networked
//     release to match it bit for bit,
//   - writes a run summary (<out-dir>/coordinator.json).
//
// When the config sets max_restarts > 0 the coordinator is also the
// SUPERVISOR: each party gets a durable checkpoint directory
// (<out-dir>/ckpt_<j>), and a party that dies unexpectedly is respawned —
// after restart_backoff_seconds, on its original resolved port, with
// --incarnation bumped — up to max_restarts times, so it can rejoin the
// still-running quorum from its checkpoint (docs/DEPLOYMENT.md "Recovery
// & supervision"). Only when restarts are exhausted does the run fall
// through to the parties' own dropout handling.
//
// --trace-validate=FILE is a standalone mode: it loads a merged trace and
// asserts every per-(pid, tid) track holds properly nested span intervals
// and every flow-arrow finish has a matching start stamped no later than
// it, exiting 0 iff the document is a causally consistent timeline.
//
// Exit 0 iff every party that was expected to survive exited cleanly and
// all bit-exactness checks passed. See docs/DEPLOYMENT.md.

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define SQM_COORDINATOR_SUPPORTED 1
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define SQM_COORDINATOR_SUPPORTED 0
#endif

#include <chrono>
#include <thread>

#include "core/json.h"
#include "core/party_sqm.h"
#include "core/report_io.h"
#include "core/sqm.h"
#include "core/status.h"
#include "net/tcp/party_config.h"
#include "net/tcp/socket.h"
#include "obs/trace.h"
#include "poly/parser.h"

#ifndef SQM_PARTY_BIN
#define SQM_PARTY_BIN "sqm-party"
#endif

namespace {

struct Args {
  std::string config_path;
  std::string out_dir = ".";
  std::string party_bin = SQM_PARTY_BIN;
  std::string trace_validate;
  bool compare_lockstep = false;
  long crash_party = -1;
  long crash_at_mul_level = -1;
  /// Re-arm --crash-at-mul-level on every respawn of --crash-party, so a
  /// test can deterministically exhaust the restart budget and exercise
  /// the degrade fallback. Implies the crash party is an expected
  /// casualty even under supervision.
  bool crash_every_incarnation = false;
  double timeout_seconds = 120.0;
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

/// ParseLongFlag for a finite decimal number.
bool ParseDoubleFlag(const std::string& arg, const std::string& name,
                     double* out, bool* malformed) {
  std::string text;
  if (!ParseFlag(arg, name, &text)) return false;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if (ec != std::errc() || ptr != end || !std::isfinite(*out)) {
    *malformed = true;
  }
  return true;
}

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --config=FILE [--out-dir=DIR] [--compare-lockstep]"
               " [--crash-party=N --crash-at-mul-level=L]"
               " [--crash-every-incarnation]"
               " [--party-bin=PATH] [--timeout-seconds=S]\n"
               "       "
            << argv0 << " --trace-validate=FILE\n";
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
  return static_cast<bool>(out);
}

/// --trace-validate: structural checks over a (merged) Chrome trace.
/// Asserts that, per (pid, tid) track, complete spans form properly
/// nested intervals — a child span starts after its parent and ends no
/// later — and that every flow finish ("f") has a flow start ("s") with
/// the same id somewhere in the document, stamped no later than the
/// finish (all processes share one clock, so a receive never precedes its
/// send). Prints what it checked.
int ValidateTrace(const std::string& path) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::cerr << "trace-validate: cannot read " << path << "\n";
    return 1;
  }
  sqm::Result<sqm::JsonValue> parsed = sqm::ParseJson(text);
  if (!parsed.ok()) {
    std::cerr << "trace-validate: " << parsed.status().ToString() << "\n";
    return 1;
  }
  const sqm::JsonValue* events = parsed.ValueOrDie().Find("traceEvents");
  if (events == nullptr ||
      events->kind != sqm::JsonValue::Kind::kArray) {
    std::cerr << "trace-validate: no traceEvents array\n";
    return 1;
  }
  struct Interval {
    int64_t ts = 0;
    int64_t end = 0;
  };
  std::map<std::pair<int64_t, int64_t>, std::vector<Interval>> tracks;
  // Flow id -> earliest start stamp / every finish stamp.
  std::map<uint64_t, int64_t> flow_starts;
  std::map<uint64_t, std::vector<int64_t>> flow_finishes;
  size_t spans = 0;
  auto int_member = [](const sqm::JsonValue& obj, const char* key,
                       int64_t fallback) -> int64_t {
    const sqm::JsonValue* v = obj.Find(key);
    if (v == nullptr || v->kind != sqm::JsonValue::Kind::kNumber ||
        !v->is_integer) {
      return fallback;
    }
    return v->is_negative ? v->int_value
                          : static_cast<int64_t>(v->uint_value);
  };
  for (const sqm::JsonValue& event : events->items) {
    if (event.kind != sqm::JsonValue::Kind::kObject) continue;
    const sqm::JsonValue* ph = event.Find("ph");
    if (ph == nullptr || ph->kind != sqm::JsonValue::Kind::kString) {
      continue;
    }
    const int64_t pid = int_member(event, "pid", 0);
    const int64_t tid = int_member(event, "tid", 0);
    const int64_t ts = int_member(event, "ts", 0);
    if (ph->string_value == "X") {
      ++spans;
      tracks[{pid, tid}].push_back(
          Interval{ts, ts + int_member(event, "dur", 0)});
    } else if (ph->string_value == "s") {
      const auto id = static_cast<uint64_t>(int_member(event, "id", 0));
      const auto [it, fresh] = flow_starts.emplace(id, ts);
      if (!fresh) it->second = std::min(it->second, ts);
    } else if (ph->string_value == "f") {
      flow_finishes[static_cast<uint64_t>(int_member(event, "id", 0))]
          .push_back(ts);
    }
  }
  size_t violations = 0;
  for (auto& [track, intervals] : tracks) {
    // Parent-before-child at equal start: sort by (ts, longest first).
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                if (a.ts != b.ts) return a.ts < b.ts;
                return a.end > b.end;
              });
    std::vector<Interval> stack;
    for (const Interval& span : intervals) {
      while (!stack.empty() && stack.back().end <= span.ts) {
        stack.pop_back();
      }
      if (!stack.empty() && span.end > stack.back().end) {
        ++violations;
        std::cerr << "trace-validate: overlapping spans on pid "
                  << track.first << " tid " << track.second << ": ["
                  << span.ts << ", " << span.end << ") is not nested in ["
                  << stack.back().ts << ", " << stack.back().end << ")\n";
      }
      stack.push_back(span);
    }
  }
  size_t dangling = 0;
  size_t backwards = 0;
  for (const auto& [id, finish_stamps] : flow_finishes) {
    const auto start = flow_starts.find(id);
    if (start == flow_starts.end()) {
      ++dangling;
      std::cerr << "trace-validate: flow finish id " << id
                << " has no matching start\n";
      continue;
    }
    for (const int64_t ts : finish_stamps) {
      if (ts >= start->second) continue;
      ++backwards;
      std::cerr << "trace-validate: flow id " << id << " finishes at " << ts
                << ", before its start at " << start->second << "\n";
    }
  }
  std::cout << "trace-validate: " << spans << " spans on "
            << tracks.size() << " tracks, " << flow_starts.size()
            << " flow starts, " << flow_finishes.size()
            << " flow finishes; " << violations << " nesting violations, "
            << dangling << " dangling flows, " << backwards
            << " flow finishes before their start\n";
  return (violations == 0 && dangling == 0 && backwards == 0) ? 0 : 1;
}

}  // namespace

#if SQM_COORDINATOR_SUPPORTED

namespace {

struct PartyOutcome {
  pid_t pid = -1;
  bool exited = false;     ///< waitpid reaped it before the watchdog fired.
  int exit_code = -1;      ///< Valid when exited normally.
  int term_signal = 0;     ///< Non-zero when killed by a signal.
  size_t restarts = 0;     ///< Supervised respawns consumed.
  bool report_loaded = false;
  sqm::SqmReport report;
};

/// Reaps every child, SIGKILLing stragglers once `deadline` passes — a
/// deployment whose dropout handling works never gets that far; the
/// watchdog turns a regression back into a test failure instead of a hang.
///
/// `try_restart(j)` is consulted when party j is reaped dead (killed by a
/// signal or nonzero exit): returning true means it respawned the party
/// (outcomes[j].pid now names the new incarnation) and supervision
/// continues; false lets the death stand. Never consulted after the
/// watchdog fires — those deaths are the watchdog's own SIGKILLs.
void AwaitChildren(std::vector<PartyOutcome>& outcomes,
                   std::chrono::steady_clock::time_point deadline,
                   const std::function<bool(size_t)>& try_restart) {
  size_t remaining = 0;
  for (const PartyOutcome& outcome : outcomes) {
    if (outcome.pid > 0) ++remaining;
  }
  bool killed = false;
  while (remaining > 0) {
    bool reaped_one = false;
    for (size_t j = 0; j < outcomes.size(); ++j) {
      PartyOutcome& outcome = outcomes[j];
      if (outcome.pid <= 0 || outcome.exited) continue;
      int status = 0;
      const pid_t rc = ::waitpid(outcome.pid, &status, WNOHANG);
      if (rc == outcome.pid) {
        reaped_one = true;
        outcome.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        outcome.term_signal = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
        const bool died =
            outcome.term_signal != 0 || outcome.exit_code != 0;
        if (died && !killed && try_restart && try_restart(j)) continue;
        outcome.exited = true;
        --remaining;
      }
    }
    if (remaining == 0) break;
    if (!reaped_one) {
      if (std::chrono::steady_clock::now() >= deadline) {
        if (!killed) {
          killed = true;
          for (const PartyOutcome& outcome : outcomes) {
            if (outcome.pid > 0 && !outcome.exited) {
              std::cerr << "watchdog: killing hung party pid "
                        << outcome.pid << "\n";
              ::kill(outcome.pid, SIGKILL);
            }
          }
        }
        // After SIGKILL the next waitpid pass reaps them; keep looping.
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool malformed = false;
    if (ParseFlag(arg, "config", &args.config_path) ||
        ParseFlag(arg, "out-dir", &args.out_dir) ||
        ParseFlag(arg, "party-bin", &args.party_bin) ||
        ParseFlag(arg, "trace-validate", &args.trace_validate) ||
        ParseLongFlag(arg, "crash-party", &args.crash_party, &malformed) ||
        ParseLongFlag(arg, "crash-at-mul-level", &args.crash_at_mul_level,
                      &malformed) ||
        ParseDoubleFlag(arg, "timeout-seconds", &args.timeout_seconds,
                        &malformed)) {
      if (!malformed) continue;
    } else if (arg == "--compare-lockstep") {
      args.compare_lockstep = true;
      continue;
    } else if (arg == "--crash-every-incarnation") {
      args.crash_every_incarnation = true;
      continue;
    }
    std::cerr << (malformed ? "malformed flag value: " : "unknown flag: ")
              << arg << "\n";
    return Usage(argv[0]);
  }
  if (!args.trace_validate.empty()) return ValidateTrace(args.trace_validate);
  if (args.config_path.empty()) return Usage(argv[0]);

  std::string config_text;
  if (!ReadFile(args.config_path, &config_text)) {
    std::cerr << "cannot read config " << args.config_path << "\n";
    return 1;
  }
  sqm::Result<sqm::DeploymentConfig> parsed =
      sqm::ParseDeploymentConfig(config_text);
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    return 1;
  }
  sqm::DeploymentConfig config = std::move(parsed).ValueOrDie();
  const size_t n = config.parties.size();
  // Options every party would refuse (say, an unknown dropout policy)
  // fail here, before any listener is bound or any party forked.
  const sqm::Result<sqm::SqmOptions> options =
      sqm::SqmOptionsFromDeployment(config);
  if (!options.ok()) {
    std::cerr << options.status().ToString() << "\n";
    return 1;
  }

  // Pre-bind every listener so (a) port 0 resolves before the roster is
  // distributed and (b) no party can fail a bind race against a stale
  // process. All listeners are close-on-exec; each child re-enables
  // inheritance for its OWN listener only, so no party holds a sibling's
  // port open after that sibling dies.
  std::vector<sqm::net::Socket> listeners;
  listeners.reserve(n);
  for (size_t j = 0; j < n; ++j) {
    sqm::Result<sqm::net::Socket> listener =
        sqm::net::ListenOn(config.parties[j].host, config.parties[j].port);
    if (!listener.ok()) {
      std::cerr << "cannot bind party " << j << " listener: "
                << listener.status().ToString() << "\n";
      return 1;
    }
    sqm::Result<uint16_t> port =
        sqm::net::LocalPort(listener.ValueOrDie());
    if (!port.ok()) {
      std::cerr << port.status().ToString() << "\n";
      return 1;
    }
    config.parties[j].port = port.ValueOrDie();
    const sqm::Status cloexec =
        sqm::net::SetCloseOnExec(listener.ValueOrDie(), true);
    if (!cloexec.ok()) {
      std::cerr << cloexec.ToString() << "\n";
      return 1;
    }
    listeners.push_back(std::move(listener).ValueOrDie());
  }

  const std::string resolved_path = args.out_dir + "/deploy_resolved.json";
  if (!WriteFile(resolved_path, sqm::DeploymentConfigToJson(config))) {
    std::cerr << "cannot write " << resolved_path
              << " (does --out-dir exist?)\n";
    return 1;
  }

  // Supervision: each party gets a durable checkpoint directory, so a
  // respawned incarnation can resume from its last phase boundary.
  const bool supervised = config.max_restarts > 0;
  std::vector<std::string> checkpoint_dirs(n);
  if (supervised) {
    for (size_t j = 0; j < n; ++j) {
      checkpoint_dirs[j] = args.out_dir + "/ckpt_" + std::to_string(j);
      if (::mkdir(checkpoint_dirs[j].c_str(), 0755) != 0 &&
          errno != EEXIST) {
        std::cerr << "cannot create " << checkpoint_dirs[j] << ": "
                  << std::strerror(errno) << "\n";
        return 1;
      }
    }
  }

  std::vector<PartyOutcome> outcomes(n);
  std::vector<std::string> report_paths(n);
  // One trace file per (party, incarnation): a respawn must never
  // overwrite its pre-crash incarnation's spans — the merge puts both
  // documents on the SAME party track, so a restart reads as a gap.
  auto trace_path = [&](size_t j, size_t incarnation) {
    return args.out_dir + "/party_" + std::to_string(j) + ".inc" +
           std::to_string(incarnation) + ".trace.json";
  };
  for (size_t j = 0; j < n; ++j) {
    report_paths[j] =
        args.out_dir + "/party_" + std::to_string(j) + ".json";
  }

  // Forks sqm-party j handing it `listener`; incarnation > 0 marks a
  // supervised respawn, which resumes from its checkpoint and must NOT
  // inherit the deterministic crash flag (the crash already happened).
  auto spawn_party = [&](size_t j, sqm::net::Socket listener,
                         size_t incarnation) -> pid_t {
    std::vector<std::string> child_args = {
        args.party_bin,
        "--config=" + resolved_path,
        "--party=" + std::to_string(j),
        "--listen-fd=" + std::to_string(listener.fd()),
        "--report=" + report_paths[j],
        "--trace=" + trace_path(j, incarnation),
    };
    if (supervised) {
      child_args.push_back("--checkpoint-dir=" + checkpoint_dirs[j]);
      child_args.push_back("--incarnation=" + std::to_string(incarnation));
    }
    if ((incarnation == 0 || args.crash_every_incarnation) &&
        args.crash_party == static_cast<long>(j) &&
        args.crash_at_mul_level >= 0) {
      child_args.push_back("--crash-at-mul-level=" +
                           std::to_string(args.crash_at_mul_level));
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::cerr << "fork failed: " << std::strerror(errno) << "\n";
      return -1;
    }
    if (pid == 0) {
      // Child: hand over only our own listener, then become sqm-party.
      const sqm::Status status = sqm::net::SetCloseOnExec(listener, false);
      if (!status.ok()) _exit(127);
      std::vector<char*> argv_raw;
      argv_raw.reserve(child_args.size() + 1);
      for (std::string& child_arg : child_args) {
        argv_raw.push_back(child_arg.data());
      }
      argv_raw.push_back(nullptr);
      ::execv(args.party_bin.c_str(), argv_raw.data());
      // Only reached when execv failed.
      _exit(127);
    }
    // Parent: `listener` closes on return — the child owns it now.
    return pid;
  };

  // Respawns party j after an unexpected death, if the restart budget
  // allows: back off, rebind the party's original resolved port (the
  // listener died with the process; SO_REUSEADDR makes the rebind
  // immediate), fork the next incarnation.
  auto try_restart = [&](size_t j) -> bool {
    if (!supervised || outcomes[j].restarts >= config.max_restarts) {
      return false;
    }
    std::cerr << "supervisor: party " << j << " died (exit="
              << outcomes[j].exit_code
              << " signal=" << outcomes[j].term_signal << "), restart "
              << (outcomes[j].restarts + 1) << "/" << config.max_restarts
              << "\n";
    std::this_thread::sleep_for(
        std::chrono::duration<double>(config.restart_backoff_seconds));
    sqm::Result<sqm::net::Socket> listener = sqm::net::ListenOn(
        config.parties[j].host, config.parties[j].port);
    for (int attempt = 0; !listener.ok() && attempt < 20; ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      listener = sqm::net::ListenOn(config.parties[j].host,
                                    config.parties[j].port);
    }
    if (!listener.ok()) {
      std::cerr << "supervisor: cannot rebind party " << j << " port "
                << config.parties[j].port << ": "
                << listener.status().ToString() << "\n";
      return false;
    }
    const sqm::Status cloexec =
        sqm::net::SetCloseOnExec(listener.ValueOrDie(), true);
    if (!cloexec.ok()) {
      std::cerr << cloexec.ToString() << "\n";
      return false;
    }
    const pid_t pid = spawn_party(j, std::move(listener).ValueOrDie(),
                                  outcomes[j].restarts + 1);
    if (pid < 0) return false;
    ++outcomes[j].restarts;
    outcomes[j].pid = pid;
    outcomes[j].exit_code = -1;
    outcomes[j].term_signal = 0;
    return true;
  };

  // Launch the parties.
  for (size_t j = 0; j < n; ++j) {
    const pid_t pid = spawn_party(j, std::move(listeners[j]), 0);
    if (pid < 0) return 1;
    outcomes[j].pid = pid;
  }
  // Parent: release every listener — the children own them now.
  listeners.clear();

  AwaitChildren(outcomes,
                std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            args.timeout_seconds)),
                try_restart);

  // Collect reports from the parties that produced one.
  bool ok = true;
  size_t canonical = n;
  for (size_t j = 0; j < n; ++j) {
    std::string report_text;
    if (outcomes[j].exit_code == 0 &&
        ReadFile(report_paths[j], &report_text)) {
      sqm::Result<sqm::SqmReport> report =
          sqm::SqmReportFromJson(report_text);
      if (report.ok()) {
        outcomes[j].report_loaded = true;
        outcomes[j].report = std::move(report).ValueOrDie();
        if (canonical == n) canonical = j;
      } else {
        std::cerr << "party " << j << " report unreadable: "
                  << report.status().ToString() << "\n";
        ok = false;
      }
    }
    // A --crash-party death is only excusable when nothing was supposed
    // to bring it back: under supervision its respawn must finish cleanly
    // — unless the test re-arms the crash on every incarnation precisely
    // to exhaust the restart budget.
    const bool expected_crash =
        args.crash_party == static_cast<long>(j) &&
        (!supervised || args.crash_every_incarnation);
    if (!expected_crash && outcomes[j].exit_code != 0) {
      std::cerr << "party " << j << " failed: exit="
                << outcomes[j].exit_code
                << " signal=" << outcomes[j].term_signal << "\n";
      ok = false;
    }
  }
  if (canonical == n) {
    std::cerr << "no party produced a readable report\n";
    ok = false;
  }

  // Every surviving party must have released the SAME values — the MPC
  // opens to all parties, so a mismatch means a protocol bug.
  bool parties_agree = true;
  if (canonical < n) {
    for (size_t j = 0; j < n; ++j) {
      if (!outcomes[j].report_loaded || j == canonical) continue;
      if (outcomes[j].report.raw != outcomes[canonical].report.raw) {
        std::cerr << "party " << j << " released different raw values than "
                  << "party " << canonical << "\n";
        parties_agree = false;
        ok = false;
      }
    }
  }

  // Merge every (party, incarnation) trace into one timeline: all of a
  // party's incarnations share one pid (one Perfetto process group), and
  // their timestamps already share this host's steady clock.
  std::vector<sqm::obs::TraceDoc> traces;
  for (size_t j = 0; j < n; ++j) {
    for (size_t incarnation = 0; incarnation <= outcomes[j].restarts;
         ++incarnation) {
      std::string trace_text;
      if (!ReadFile(trace_path(j, incarnation), &trace_text)) continue;
      sqm::obs::TraceDoc doc;
      doc.name = "party " + std::to_string(j);
      doc.json = std::move(trace_text);
      doc.pid = j + 1;
      traces.push_back(std::move(doc));
    }
  }
  if (!traces.empty()) {
    sqm::Result<std::string> merged = sqm::obs::MergeChromeTraces(traces);
    if (merged.ok()) {
      WriteFile(args.out_dir + "/merged_trace.json", merged.ValueOrDie());
    } else {
      std::cerr << "trace merge failed: " << merged.status().ToString()
                << "\n";
    }
  }

  // Reference run: the same deployment on the in-process lockstep
  // transport must release bit-identical raw values.
  bool lockstep_match = true;
  if (args.compare_lockstep && canonical < n) {
    const size_t cols = sqm::DeploymentCols(config);
    const sqm::Matrix x =
        sqm::GenerateDeploymentMatrix(config.rows, cols, config.data_seed);
    sqm::Result<sqm::PolynomialVector> f =
        sqm::ParsePolynomialVector(config.polynomial);
    if (!f.ok()) {
      std::cerr << f.status().ToString() << "\n";
      ok = false;
    } else {
      sqm::SqmEvaluator evaluator(options.ValueOrDie());
      sqm::Result<sqm::SqmReport> reference =
          evaluator.Evaluate(f.ValueOrDie(), x);
      if (!reference.ok()) {
        std::cerr << "lockstep reference run failed: "
                  << reference.status().ToString() << "\n";
        ok = false;
      } else if (reference.ValueOrDie().raw !=
                 outcomes[canonical].report.raw) {
        std::cerr << "networked release differs from the lockstep "
                     "reference (bit-exactness violated)\n";
        lockstep_match = false;
        ok = false;
      } else {
        std::cout << "lockstep comparison: bit-identical ("
                  << outcomes[canonical].report.raw.size()
                  << " outputs)\n";
      }
    }
  }

  // Run summary.
  sqm::JsonWriter summary;
  summary.BeginObject();
  summary.Field("parties", static_cast<uint64_t>(n));
  summary.Field("ok", ok);
  summary.Field("parties_agree", parties_agree);
  summary.Field("lockstep_compared", args.compare_lockstep);
  summary.Field("lockstep_match", lockstep_match);
  summary.BeginArray("party_outcomes");
  for (size_t j = 0; j < n; ++j) {
    summary.BeginObject();
    summary.Field("party", static_cast<uint64_t>(j));
    summary.Field("exit_code", static_cast<int64_t>(outcomes[j].exit_code));
    summary.Field("term_signal",
                  static_cast<int64_t>(outcomes[j].term_signal));
    summary.Field("restarts", static_cast<uint64_t>(outcomes[j].restarts));
    summary.Field("report_loaded", outcomes[j].report_loaded);
    summary.EndObject();
  }
  summary.EndArray();
  std::string canonical_text;
  if (canonical < n && ReadFile(report_paths[canonical], &canonical_text)) {
    // Re-embed the canonical party's report verbatim so the summary alone
    // carries the release, dropout accounting and privacy ledger. The
    // report is already a JSON object, so it splices as the value.
    summary.Key("canonical_report");
    std::string doc = summary.str();
    doc += canonical_text;
    doc += "}";
    WriteFile(args.out_dir + "/coordinator.json", doc);
  } else {
    summary.EndObject();
    WriteFile(args.out_dir + "/coordinator.json", summary.str());
  }

  if (canonical < n) {
    const sqm::DropoutReport& dropout = outcomes[canonical].report.dropout;
    std::cout << "run " << (ok ? "OK" : "FAILED") << ": " << n
              << " parties, " << dropout.num_dropped << " dropped, policy "
              << sqm::DropoutPolicyToString(dropout.policy)
              << ", realized_mu " << dropout.realized_mu
              << ", realized_epsilon " << dropout.realized_epsilon << "\n";
  }
  return ok ? 0 : 1;
}

#else  // !SQM_COORDINATOR_SUPPORTED

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (ParseFlag(arg, "trace-validate", &args.trace_validate)) continue;
  }
  if (!args.trace_validate.empty()) return ValidateTrace(args.trace_validate);
  std::cerr << "sqm-coordinator requires POSIX fork/exec\n";
  return 2;
}

#endif  // SQM_COORDINATOR_SUPPORTED
