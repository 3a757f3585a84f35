#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "layer_fold.h"
#include "net/stats.h"
#include "net/tcp/party_config.h"
#include "net/tcp/tcp_transport.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
inline double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Cross-party traffic of one release, summed over every transport that
/// carried it. `rounds` is per party (every party runs the same rounds).
struct Traffic {
  uint64_t messages = 0;
  uint64_t wire_bytes = 0;
  uint64_t rounds = 0;
  std::map<std::string, uint64_t> phase_bytes;

  bool operator==(const Traffic&) const = default;
};

/// Counters of `after` minus those of `before` (before may be empty).
Traffic TrafficBetween(const sqm::TransportStats& after,
                       const sqm::TransportStats& before);

/// One release as the benchmark saw it.
struct Release {
  uint64_t index = 0;
  sqm::Status status;
  double wall_s = 0.0;
  /// Released integers, one vector per party (one for the driver).
  std::vector<std::vector<int64_t>> raw;
  /// Track of the thread whose return ended the release, and its report's
  /// timing (see FoldRelease).
  int32_t critical = kMainTrack;
  ReportTiming timing;
  Traffic traffic;
};

/// The privacy parameters a workload's releases run with.
struct DpParams {
  double epsilon = 1.0;
  double delta = 1e-5;
  double gamma = 0.0;
  double l1 = 0.0;
  double l2 = 0.0;
  double mu = 0.0;
  size_t output_dim = 0;
};

/// One benchmark workload. The runner calls Setup() many times (each call
/// is one complete, timed set-up that replaces the previous one), then
/// Run() in a closed loop. Reference() runs after the timed windows.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Threads that generate load (the release's own compute threads).
  virtual size_t load_threads() const = 0;
  /// The CPU slot (see PinToCpu) the main thread runs release `index` on.
  virtual size_t MainCpuSlot(uint64_t index) const = 0;
  /// The workload's shape as a JSON object, for the run record.
  virtual std::string ShapeJson() const = 0;
  virtual sqm::Status Setup() = 0;
  /// Release `index`; its inputs are a pure function of (seed, index).
  virtual Release Run(uint64_t index) = 0;
  /// The plaintext reference evaluation of release `index`: the same
  /// options, seed and data through SqmEvaluator's kPlaintext backend.
  virtual sqm::Result<std::vector<int64_t>> Reference(uint64_t index) const = 0;
  virtual DpParams dp() const = 0;
  /// Why a layer is structurally absent on this workload, by layer name.
  virtual std::map<std::string, std::string> AbsentLayers() const = 0;
};

/// Median of a sample (0 when empty).
double Median(std::vector<double> values);

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

// ---- The Section V-B gradient deployment (session_tcp), shared with the
// transport-decorator check.

/// A 3-party logistic-regression gradient deployment (16 records, 8
/// features plus the label) with mu calibrated for epsilon = 1,
/// delta = 1e-5 on a unit-norm weight vector, so mu does not depend on the
/// seed. Party ports are left 0 (see BindListeners).
struct LrDeployment {
  uint64_t seed = 0;
  sqm::DeploymentConfig base;
  DpParams dp;
};
sqm::Result<LrDeployment> PrepareLrDeployment(uint64_t seed);

/// Release `index` of `deployment` as one SGD step: fresh non-zero weights
/// (norm <= 1) and a fresh protocol seed over the same minibatch.
sqm::DeploymentConfig LrReleaseConfig(const LrDeployment& deployment,
                                      uint64_t index);

/// Binds one port-0 listener per party (as sqm-coordinator pre-binds
/// them), writes the resolved ports into `config`, and hands out the fds.
sqm::Result<std::vector<int>> BindListeners(sqm::DeploymentConfig* config);

/// Party `party`'s TcpTransport on listener `fd`, under a "bench.create"
/// span.
sqm::Result<std::unique_ptr<sqm::TcpTransport>> CreateParty(
    const sqm::DeploymentConfig& config, size_t party, int fd);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
