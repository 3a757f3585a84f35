// sqm_perfbench: runs one workload of the SQM release benchmark in this
// process and prints its run record as one JSON line on stdout.
//
//   sqm_perfbench --workload session_tcp --seed 7 --seconds 10 --trace 0
//       [--chrome-trace out.json]
//
// Phases: timed set-ups, a warm-up by time, then the timed window in four
// parts with a batch of timed set-ups after each (setup_s is the median of
// every batch). With --trace 0 the window is untraced (obs switched off)
// and yields the end-to-end metrics. With --trace 1 each part is split: an
// untraced half (OS counters), then a half that alternates traced and
// untraced releases; the traced ones are folded into the per-layer metrics,
// and the two kinds side by side give the tracing overhead without drift
// between them. Every release is checked against the plaintext reference
// after the windows.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/logging.h"
#include "cpu.h"
#include "dp/accountant.h"
#include "dp/skellam.h"
#include "layer_fold.h"
#include "obs/ledger.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

// A fresh process runs slow for its first seconds; releases in this
// warm-up are checked but not measured.
constexpr double kWarmupSeconds = 2.0;
// The timed window runs in this many parts with a set-up batch after each.
constexpr int kWindowParts = 4;
// One set-up takes about a millisecond, so each set-up batch repeats it for
// a fixed time (and at least kMinSetupsPerBatch times).
constexpr double kSetupBatchSeconds = 0.3;
constexpr size_t kMinSetupsPerBatch = 20;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string chrome_trace;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::cerr << "missing value for " << key << "\n";
      return false;
    }
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--chrome-trace") {
      args->chrome_trace = value;
    } else {
      std::cerr << "unknown flag " << key << "\n";
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minor_faults = 0.0;
  double ctx_switches = 0.0;  // voluntary + involuntary
};

/// The process's peak resident set (VmHWM) in MB. Not ru_maxrss: Linux
/// carries that high-water mark across execve, so a child of a large
/// launcher would report the launcher's RSS.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
  u.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

/// Linear-interpolated quantile of a non-empty sample.
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Medians of `chunks` consecutive equal-count slices of a sample, in
/// order: a drift across them means the warm-up was too short.
std::vector<double> ChunkMedians(const std::vector<double>& values,
                                 size_t chunks) {
  std::vector<double> medians;
  for (size_t c = 0; c < chunks && values.size() >= chunks; ++c) {
    medians.push_back(Median(std::vector<double>(
        values.begin() + c * values.size() / chunks,
        values.begin() + (c + 1) * values.size() / chunks)));
  }
  return medians;
}

uint64_t Digest(const std::vector<int64_t>& values) {
  uint64_t h = 0xcbf29ce484222325ULL ^ values.size();
  for (const int64_t v : values) {
    h = (h ^ static_cast<uint64_t>(v)) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}

/// What the benchmark keeps of a release for the post-window checks.
struct Kept {
  uint64_t index = 0;
  std::string error;   // Empty when the release ran and its parties agreed.
  uint64_t digest = 0;  // Of the (agreed) released integers.
};

/// A release's outputs reduced to Kept, checking the in-window invariants:
/// OK status, every party released the same integers, traffic identical to
/// the first release's.
Kept Keep(const Release& release, const Traffic& expected_traffic) {
  Kept kept;
  kept.index = release.index;
  if (!release.status.ok()) {
    kept.error = release.status.ToString();
  } else if (release.raw.empty()) {
    kept.error = "no output";
  } else if (!std::all_of(release.raw.begin(), release.raw.end(),
                          [&](const auto& raw) {
                            return raw == release.raw.front();
                          })) {
    kept.error = "parties released different integers";
  } else if (!(release.traffic == expected_traffic)) {
    kept.error = "traffic differs from the first release";
  } else {
    kept.digest = Digest(release.raw.front());
  }
  return kept;
}

struct Window {
  std::vector<Kept> kept;
  std::vector<double> release_s;  // Untraced releases.
  std::vector<double> traced_s;   // Traced releases.
  double elapsed_s = 0.0;
  Usage usage;  // Delta over the window.
  // Traced windows only.
  std::map<std::string, double> layer_sum;
  std::map<std::pair<int32_t, int64_t>, double> recv_wait_sum;
  double covered_min = 1e300;
  double covered_max = 0.0;
  size_t misnested = 0;
  std::set<std::string> unknown_spans;
};

class Runner {
 public:
  Runner(Workload* workload, const Args& args)
      : workload_(workload), args_(args) {}

  /// Closed loop: the next release starts when the previous returns. With
  /// `interleave_tracing`, every other release runs traced. Adds the
  /// releases, time and OS counters to `window`.
  void Measure(double seconds, bool interleave_tracing, Window* window) {
    sqm::obs::Tracer& tracer = sqm::obs::Tracer::Global();
    const Usage before = ReadUsage();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    while (Clock::now() < deadline) {
      PinToCpu(workload_->MainCpuSlot(next_index_));
      const bool traced = interleave_tracing && next_index_ % 2 == 1;
      sqm::obs::SetEnabled(traced);
      if (traced) {
        tracer.Clear();
        sqm::obs::PrivacyLedger::Global().Clear();
        tracer.Instant(kBeginMarker, "bench");
      }
      Release release;
      {
        sqm::obs::Span span("bench.release", "bench");
        release = workload_->Run(next_index_++);
      }
      if (!have_traffic_ && release.status.ok()) {
        expected_traffic_ = release.traffic;
        have_traffic_ = true;
      }
      if (traced) Fold(release, window);
      (traced ? window->traced_s : window->release_s)
          .push_back(release.wall_s);
      window->kept.push_back(Keep(release, expected_traffic_));
    }
    window->elapsed_s += Since(start);
    UnpinThread();
    const Usage after = ReadUsage();
    window->usage.user_s += after.user_s - before.user_s;
    window->usage.sys_s += after.sys_s - before.sys_s;
    window->usage.minor_faults += after.minor_faults - before.minor_faults;
    window->usage.ctx_switches += after.ctx_switches - before.ctx_switches;
    sqm::obs::SetEnabled(false);
    if (interleave_tracing) {
      // The last traced release's events are still buffered: one release
      // per Chrome trace file.
      if (!args_.chrome_trace.empty()) {
        chrome_trace_written_ = tracer.WriteChromeTraceFile(args_.chrome_trace);
      }
      tracer.Clear();
      sqm::obs::PrivacyLedger::Global().Clear();
    }
  }

  const Traffic& traffic() const { return expected_traffic_; }
  bool chrome_trace_written() const { return chrome_trace_written_; }

 private:
  void Fold(const Release& release, Window* window) {
    if (!release.status.ok()) return;
    const ReleaseLayers layers =
        FoldRelease(sqm::obs::Tracer::Global().Collect(), release.critical,
                    release.timing, release.wall_s);
    for (const auto& [name, s] : layers.seconds) window->layer_sum[name] += s;
    for (const auto& [key, s] : layers.recv_wait) {
      window->recv_wait_sum[key] += s;
    }
    window->covered_min = std::min(window->covered_min, layers.covered_frac);
    window->covered_max = std::max(window->covered_max, layers.covered_frac);
    window->misnested += layers.misnested;
    window->unknown_spans.insert(layers.unknown_spans.begin(),
                                 layers.unknown_spans.end());
  }

  Workload* workload_;
  const Args& args_;
  uint64_t next_index_ = 0;
  Traffic expected_traffic_;
  bool have_traffic_ = false;
  bool chrome_trace_written_ = false;
};

// ---- JSON output -----------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += Str(metrics[i].name) + ":{\"value\":" + Num(metrics[i].value) +
           ",\"unit\":" + Str(metrics[i].unit) + "}";
  }
  return out + "}";
}

template <typename Map, typename Fn>
std::string ObjectJson(const Map& map, Fn value) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, v] : map) {
    if (!first) out += ",";
    first = false;
    out += Str(key) + ":" + value(v);
  }
  return out + "}";
}

/// Median seconds of `reps` calls of `fn`.
template <typename Fn>
double TimeCalls(int reps, Fn fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    samples.push_back(Since(start));
  }
  return Median(samples);
}

int Main(int argc, char** argv) {
  sqm::Logger::SetLevel(sqm::LogLevel::kError);
  // The tracer is on by default; the untraced phases must not fill it.
  sqm::obs::SetEnabled(false);
  sqm::obs::TrackScope main_track(kMainTrack);

  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: sqm_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--chrome-trace PATH]\n";
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  const size_t nproc = AllowedCpus().size();
  if (workload->load_threads() > nproc) {
    std::cerr << "refusing " << args.workload << ": "
              << workload->load_threads() << " load threads exceed nproc = "
              << nproc << "\n";
    return 3;
  }

  // Set-up is timed in batches, one before the first release and one after
  // each part of the window, so that its median spans the process's
  // lifetime rather than the machine's state in one short stretch. Each
  // set-up runs on the next CPU.
  std::vector<double> setup_s;
  std::vector<double> setup_batch_p50;
  const auto set_up = [&] {
    const size_t first = setup_s.size();
    const Clock::time_point batch_start = Clock::now();
    for (size_t k = 0;
         k < kMinSetupsPerBatch || Since(batch_start) < kSetupBatchSeconds;
         ++k) {
      PinToCpu(setup_s.size());
      const Clock::time_point start = Clock::now();
      const sqm::Status status = workload->Setup();
      setup_s.push_back(Since(start));
      if (!status.ok()) {
        std::cerr << "set-up failed: " << status.ToString() << "\n";
        return false;
      }
    }
    UnpinThread();
    setup_batch_p50.push_back(
        Median({setup_s.begin() + first, setup_s.end()}));
    return true;
  };
  if (!set_up()) return 1;

  Runner runner(workload.get(), args);
  Window warmup;
  runner.Measure(kWarmupSeconds, false, &warmup);
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  Window untraced;
  Window mixed;
  for (int part = 0; part < kWindowParts; ++part) {
    runner.Measure(untraced_s / kWindowParts, false, &untraced);
    if (args.trace) {
      runner.Measure(args.seconds / 2 / kWindowParts, true, &mixed);
    }
    if (!set_up()) return 1;
  }
  const double peak_rss_mb = PeakRssMb();

  // ---- Correctness, outside the timed windows: every release against the
  // plaintext reference.
  size_t attempted = 0;
  size_t failed = 0;
  bool warmup_ok = true;
  std::vector<std::string> errors;
  const auto check = [&](const Window& window, bool counted) {
    // References are independent; compute them on every CPU.
    std::vector<std::string> verdicts(window.kept.size());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < nproc; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < window.kept.size(); i += nproc) {
          const Kept& kept = window.kept[i];
          verdicts[i] = kept.error;
          if (!kept.error.empty()) continue;
          sqm::Result<std::vector<int64_t>> reference =
              workload->Reference(kept.index);
          if (!reference.ok()) {
            verdicts[i] = "reference failed: " + reference.status().ToString();
          } else if (Digest(reference.ValueOrDie()) != kept.digest) {
            verdicts[i] = "output differs from the plaintext reference";
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t i = 0; i < window.kept.size(); ++i) {
      const Kept& kept = window.kept[i];
      const std::string& error = verdicts[i];
      if (counted) ++attempted;
      if (error.empty()) continue;
      if (counted) {
        ++failed;
      } else {
        warmup_ok = false;
      }
      if (errors.size() < 5) {
        errors.push_back("release " + std::to_string(kept.index) + ": " +
                         error);
      }
    }
  };
  check(warmup, false);
  check(untraced, true);
  check(mixed, true);

  // ---- dp layer: the calibrator and accountant on the release's own
  // parameters, timed from outside (obs off, so no ledger growth).
  const DpParams dp = workload->dp();
  const double calibrate_s = TimeCalls(7, [&] {
    const sqm::Result<double> mu = sqm::CalibrateSkellamMuSingleRelease(
        dp.epsilon, dp.delta, dp.l1, dp.l2);
    if (!mu.ok()) errors.push_back("calibration: " + mu.status().ToString());
  });
  double epsilon = 0.0;
  const double account_s = TimeCalls(7, [&] {
    sqm::PrivacyAccountant accountant;
    accountant.SetLedgerContext(dp.delta, dp.gamma, dp.output_dim);
    accountant.AddSkellam("sqm_release", dp.l1, dp.l2, dp.mu);
    const sqm::Result<sqm::PrivacyGuarantee> total =
        accountant.TotalGuarantee(dp.delta);
    epsilon = sqm::SkellamEpsilonSingleRelease(dp.mu, dp.l1, dp.l2, dp.delta);
    if (!total.ok() || std::fabs(total.ValueOrDie().epsilon - epsilon) >
                           1e-9 * std::max(1.0, epsilon)) {
      errors.push_back("accountant and single-release epsilon disagree");
    }
  });
  if (epsilon > dp.epsilon * (1.0 + 1e-9)) {
    errors.push_back("calibrated epsilon " + Num(epsilon) +
                     " exceeds the target");
  }
  const bool correct =
      failed == 0 && warmup_ok && errors.empty() && attempted > 0;

  // ---- End-to-end metrics, from the untraced window.
  const double n = static_cast<double>(untraced.release_s.size());
  const Traffic& traffic = runner.traffic();
  const auto phase_bytes = [&](const char* phase) {
    const auto it = traffic.phase_bytes.find(phase);
    return it == traffic.phase_bytes.end() ? 0.0
                                           : static_cast<double>(it->second);
  };
  const std::vector<Metric> end_to_end = {
      {"releases_per_s", n / untraced.elapsed_s, "1/s"},
      {"release_s_p50", Median(untraced.release_s), "s"},
      {"cpu_s_per_release",
       (untraced.usage.user_s + untraced.usage.sys_s) / n, "s"},
      {"setup_s", Median(setup_s), "s"},
      {"wire_bytes_per_release", static_cast<double>(traffic.wire_bytes),
       "B"},
      {"rounds_per_release", static_cast<double>(traffic.rounds), "count"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  // p90 has ~n/10 samples beyond it; it is reported, not gated.
  const double p90 = Quantile(untraced.release_s, 0.9);
  const size_t beyond_p90 = static_cast<size_t>(
      std::count_if(untraced.release_s.begin(), untraced.release_s.end(),
                    [&](double s) { return s > p90; }));

  // ---- Per-layer metrics, from the traced window (and the untraced
  // window's OS counters).
  std::vector<Metric> per_layer;
  std::string traced_json = "null";
  if (args.trace) {
    const Window& traced = mixed;
    const double tn = static_cast<double>(traced.traced_s.size());
    const auto layer_mean = [&](const std::string& name) {
      const auto it = traced.layer_sum.find(name);
      return it == traced.layer_sum.end() ? 0.0 : it->second / tn;
    };
    for (const std::string& name : LayerNames()) {
      per_layer.push_back({name, layer_mean(name), "s"});
    }
    per_layer.push_back({"net.messages_per_release",
                         static_cast<double>(traffic.messages), "count"});
    per_layer.push_back({"net.input_bytes", phase_bytes("input"), "B"});
    per_layer.push_back({"net.mul_bytes", phase_bytes("mul"), "B"});
    per_layer.push_back({"net.open_bytes", phase_bytes("open"), "B"});
    per_layer.push_back({"dp.calibrate_s", calibrate_s, "s"});
    per_layer.push_back({"dp.account_s", account_s, "s"});
    per_layer.push_back({"dp.epsilon", epsilon, "eps"});
    per_layer.push_back({"proc.minor_faults_per_release",
                         untraced.usage.minor_faults / n, "count"});
    per_layer.push_back(
        {"proc.sys_s_per_release", untraced.usage.sys_s / n, "s"});
    per_layer.push_back({"proc.ctx_switches_per_release",
                         untraced.usage.ctx_switches / n, "count"});
    const double traced_p50 = Median(traced.traced_s);
    const double untraced_p50 = Median(traced.release_s);
    per_layer.push_back(
        {"obs.overhead_frac", traced_p50 / untraced_p50 - 1.0, "frac"});

    // Integrity of the split: the folded spans lie inside the release
    // (covered <= 1 up to the microsecond clock), nothing overlapped
    // without nesting, and no layer went negative.
    double attributed = 0.0;
    double most_negative = 0.0;
    for (const std::string& name : LayerNames()) {
      const double s = layer_mean(name);
      if (name != "core.unattributed_s") attributed += s;
      most_negative = std::min(most_negative, s);
    }
    const double wall_mean =
        std::accumulate(traced.traced_s.begin(), traced.traced_s.end(), 0.0) /
        tn;
    constexpr double kTolerance = 0.01;
    const bool sums_ok =
        traced.misnested == 0 && traced.covered_max <= 1.0 + kTolerance &&
        most_negative >= -kTolerance * wall_mean;
    if (!sums_ok) errors.push_back("traced split does not add up");
    std::string recv_wait = "{";
    for (const auto& [key, s] : traced.recv_wait_sum) {
      if (recv_wait.size() > 1) recv_wait += ",";
      recv_wait += Str("party" + std::to_string(key.first) + "<-peer" +
                       std::to_string(key.second)) +
                   ":" + Num(s / tn);
    }
    recv_wait += "}";
    std::string unknown = "[";
    for (const std::string& name : traced.unknown_spans) {
      if (unknown.size() > 1) unknown += ",";
      unknown += Str(name);
    }
    unknown += "]";
    traced_json =
        "{\"releases\":" + std::to_string(traced.traced_s.size()) +
        ",\"release_s_p50\":" + Num(traced_p50) +
        ",\"interleaved_untraced_releases\":" +
        std::to_string(traced.release_s.size()) +
        ",\"interleaved_untraced_release_s_p50\":" + Num(untraced_p50) +
        ",\"wall_s_mean\":" + Num(wall_mean) +
        ",\"attributed_s_mean\":" + Num(attributed) +
        ",\"unattributed_s_mean\":" + Num(wall_mean - attributed) +
        ",\"covered_frac_min\":" + Num(traced.covered_min) +
        ",\"covered_frac_max\":" + Num(traced.covered_max) +
        ",\"misnested_spans\":" + std::to_string(traced.misnested) +
        ",\"tolerance_frac\":" + Num(kTolerance) +
        ",\"adds_up\":" + (sums_ok ? "true" : "false") +
        ",\"recv_wait_s_per_party_peer\":" + recv_wait +
        ",\"unknown_spans\":" + unknown + ",\"chrome_trace\":" +
        Str(runner.chrome_trace_written() ? args.chrome_trace : "") + "}";
  }

  std::string error_json = "[";
  for (const std::string& e : errors) {
    if (error_json.size() > 1) error_json += ",";
    error_json += Str(e);
  }
  error_json += "]";
  std::ostringstream out;
  out << "{\"workload\":" << Str(args.workload) << ",\"seed\":" << args.seed
      << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"run_seconds\":" << Num(args.seconds)
      << ",\"warmup_seconds\":" << Num(kWarmupSeconds)
      << ",\"build_type\":" << Str(PERFBENCH_BUILD_TYPE)
      << ",\"compiler\":" << Str(PERFBENCH_COMPILER) << ",\"nproc\":" << nproc
      << ",\"load_threads\":" << workload->load_threads()
      << ",\"shape\":" << workload->ShapeJson()
      << ",\"setup_s_samples\":" << setup_s.size()
      << ",\"setup_s_batch_p50\":[" << [&] {
           std::string s;
           for (double v : setup_batch_p50) s += (s.empty() ? "" : ",") + Num(v);
           return s;
         }() << "]"
      << ",\"warmup_releases\":" << warmup.release_s.size()
      << ",\"untraced\":{\"releases\":" << untraced.release_s.size()
      << ",\"elapsed_s\":" << Num(untraced.elapsed_s)
      << ",\"release_s_chunk_p50\":[" << [&] {
           std::string s;
           for (double v : ChunkMedians(untraced.release_s, 5)) {
             s += (s.empty() ? "" : ",") + Num(v);
           }
           return s;
         }() << "]"
      << ",\"release_s_p90\":" << Num(p90)
      << ",\"release_s_p90_samples_beyond\":" << beyond_p90
      << ",\"release_fail_ratio\":"
      << Num(attempted == 0 ? 1.0 : double(failed) / double(attempted))
      << ",\"phase_bytes\":"
      << ObjectJson(traffic.phase_bytes,
                    [](uint64_t b) { return std::to_string(b); })
      << "},\"traced\":" << traced_json
      << ",\"absent_layers\":"
      << ObjectJson(workload->AbsentLayers(),
                    [](const std::string& why) { return Str(why); })
      << ",\"end_to_end\":" << MetricsJson(end_to_end)
      << ",\"per_layer\":" << MetricsJson(per_layer)
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"correct\":" << (correct && errors.empty() ? "true" : "false")
      << ",\"errors\":" << error_json << "}";
  std::cout << out.str() << std::endl;
  return correct && errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
