#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <utility>

#include "core/party_sqm.h"
#include "core/sensitivity.h"
#include "core/sqm.h"
#include "cpu.h"
#include "dp/skellam.h"
#include "math/matrix.h"
#include "net/tcp/socket.h"
#include "obs/trace.h"
#include "poly/parser.h"
#include "poly/polynomial.h"
#include "sampling/rng.h"
#include "tracing_transport.h"
#include "vfl/logistic.h"

namespace perfbench {
namespace {

using sqm::DeploymentConfig;
using sqm::Result;
using sqm::SqmReport;
using sqm::Status;
using sqm::TcpTransport;

constexpr double kEpsilon = 1.0;
constexpr double kDelta = 1e-5;
constexpr double kGamma = 18.0;  // Table II.

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Streams derived from the workload seed.
constexpr uint64_t kDataStream = 1;
constexpr uint64_t kReleaseSeedStream = 2;
constexpr uint64_t kWeightStream = 3;

uint64_t ReleaseSeed(uint64_t seed, uint64_t index) {
  return Mix(Mix(seed, kReleaseSeedStream), index);
}

ReportTiming TimingOf(const SqmReport& report) {
  return ReportTiming{report.timing.quantize_seconds,
                      report.timing.noise_sampling_seconds,
                      report.timing.noise_injection_seconds -
                          report.timing.noise_sampling_seconds};
}

// ---------------------------------------------------------------------------
// pca_lockstep: the paper's Section V-A covariance release in driver mode.

class PcaLockstep final : public Workload {
 public:
  explicit PcaLockstep(uint64_t seed) : seed_(seed) {}

  size_t load_threads() const override { return 1; }
  // The release runs on the main thread: rotate it over every CPU.
  size_t MainCpuSlot(uint64_t index) const override { return index; }

  std::string ShapeJson() const override {
    return "{\"records\":" + std::to_string(kRecords) +
           ",\"attributes\":" + std::to_string(kAttributes) +
           ",\"clients\":" + std::to_string(kClients) +
           ",\"threshold\":" + std::to_string(kThreshold) +
           ",\"gamma\":18,\"outputs\":" +
           std::to_string(kAttributes * (kAttributes + 1) / 2) +
           ",\"backend\":\"bgw\",\"transport\":\"lockstep\",\"mul\":\"grr\","
           "\"quantize_coefficients\":false}";
  }

  Status Setup() override {
    x_ = sqm::GenerateDeploymentMatrix(kRecords, kAttributes,
                                       Mix(seed_, kDataStream));
    sqm::PolynomialVector f;
    for (size_t i = 0; i < kAttributes; ++i) {
      for (size_t j = i; j < kAttributes; ++j) {
        sqm::Polynomial p;
        p.AddTerm(i == j ? sqm::Monomial::Power(1.0, i, 2)
                         : sqm::Monomial(1.0, {{i, 1}, {j, 1}}));
        f.AddDimension(std::move(p));
      }
    }
    f_ = std::move(f);
    const sqm::SensitivityBound sens =
        sqm::PcaSensitivity(kGamma, 1.0, kAttributes);
    SQM_ASSIGN_OR_RETURN(const double mu,
                         sqm::CalibrateSkellamMuSingleRelease(
                             kEpsilon, kDelta, sens.l1, sens.l2));
    dp_ = DpParams{kEpsilon, kDelta, kGamma, sens.l1, sens.l2, mu,
                   f_.output_dim()};
    options_ = sqm::SqmOptions{};
    options_.gamma = kGamma;
    options_.mu = mu;
    options_.num_clients = kClients;
    options_.backend = sqm::MpcBackend::kBgw;
    options_.bgw_threshold = kThreshold;
    options_.transport = sqm::TransportMode::kLockstep;
    options_.mul_backend = sqm::MulBackend::kGrr;
    options_.dp_delta = kDelta;
    options_.max_f_l2 = 1.0;
    options_.quantize_coefficients = false;  // Section V-A.
    return Status::OK();
  }

  Release Run(uint64_t index) override {
    sqm::SqmOptions options = options_;
    options.seed = ReleaseSeed(seed_, index);
    Release release;
    release.index = index;
    const Clock::time_point start = Clock::now();
    Result<SqmReport> report = sqm::SqmEvaluator(options).Evaluate(f_, x_);
    release.wall_s = Since(start);
    if (!report.ok()) {
      release.status = report.status();
      return release;
    }
    const SqmReport& r = report.ValueOrDie();
    release.raw.push_back(r.raw);
    release.timing = TimingOf(r);
    release.traffic = TrafficBetween(r.transport, sqm::TransportStats{});
    return release;
  }

  Result<std::vector<int64_t>> Reference(uint64_t index) const override {
    sqm::SqmOptions options = options_;
    options.seed = ReleaseSeed(seed_, index);
    options.backend = sqm::MpcBackend::kPlaintext;
    SQM_ASSIGN_OR_RETURN(SqmReport reference,
                         sqm::SqmEvaluator(options).Evaluate(f_, x_));
    return std::move(reference.raw);
  }

  DpParams dp() const override { return dp_; }

  std::map<std::string, std::string> AbsentLayers() const override {
    return {{"net.recv_wait_s",
             "lockstep Receive never blocks and has no span"},
            {"net.mesh_up_s",
             "no mesh: Evaluate builds its lockstep transport internally"},
            {"net.teardown_s",
             "no mesh: Evaluate builds its lockstep transport internally"}};
  }

 private:
  static constexpr size_t kRecords = 400;
  static constexpr size_t kAttributes = 16;
  static constexpr size_t kClients = 5;
  static constexpr size_t kThreshold = 2;

  const uint64_t seed_;
  sqm::Matrix x_;
  sqm::PolynomialVector f_;
  sqm::SqmOptions options_;
  DpParams dp_;
};

// ---------------------------------------------------------------------------
// session_tcp: the paper's Section V-B gradient release over loopback TCP,
// one whole deployment per release — bind, Create x3, one release,
// Shutdown x3, join.

constexpr size_t kLrParties = 3;
constexpr size_t kLrRecords = 16;
constexpr size_t kLrFeatures = 8;
constexpr double kLrMaxFL2 = 0.75;  // max ||f|| for LR (Lemma 7).

std::string FormatVector(const sqm::PolynomialVector& f) {
  std::string text;
  for (const sqm::Polynomial& p : f.dims()) {
    if (!text.empty()) text += "; ";
    text += sqm::FormatPolynomial(p);
  }
  return text;
}

class SessionTcp final : public Workload {
 public:
  explicit SessionTcp(uint64_t seed) : seed_(seed) {}

  size_t load_threads() const override { return kLrParties; }
  // Party p runs on CPU slot p + 1; the main thread keeps slot 0.
  size_t MainCpuSlot(uint64_t) const override { return 0; }

  std::string ShapeJson() const override {
    return "{\"records\":" + std::to_string(kLrRecords) +
           ",\"features\":" + std::to_string(kLrFeatures) +
           ",\"columns\":" + std::to_string(kLrFeatures + 1) +
           ",\"parties\":" + std::to_string(kLrParties) +
           ",\"threshold\":1,\"gamma\":18,\"taylor_order\":1,\"outputs\":" +
           std::to_string(kLrFeatures) +
           ",\"backend\":\"bgw\",\"transport\":\"tcp-loopback\","
           "\"mul\":\"grr\",\"quantize_coefficients\":true}";
  }

  // No data is generated here: each party regenerates its own columns
  // from data_seed inside RunPartySqm, which the release times.
  Status Setup() override {
    SQM_ASSIGN_OR_RETURN(deployment_, PrepareLrDeployment(seed_));
    return Status::OK();
  }

  Release Run(uint64_t index) override {
    DeploymentConfig config = LrReleaseConfig(deployment_, index);
    config.run_id = index + 1;
    Release release;
    release.index = index;
    const Clock::time_point start = Clock::now();
    Result<std::vector<int>> fds = [&] {
      sqm::obs::Span span("bench.bind", "bench");
      return BindListeners(&config);
    }();
    if (!fds.ok()) {
      release.status = fds.status();
      return release;
    }
    std::vector<PartyOutcome> outcomes(kLrParties);
    std::vector<std::thread> threads;
    for (size_t p = 0; p < kLrParties; ++p) {
      threads.emplace_back([&, p] {
        PinToCpu(p + 1);
        sqm::obs::TrackScope track(static_cast<int32_t>(p));
        sqm::obs::Tracer::Global().Instant(kBeginMarker, "bench");
        sqm::obs::Span span("bench.party", "bench");
        RunParty(config, p, fds.ValueOrDie()[p], &outcomes[p]);
        // The session ends with the last teardown: that party is the
        // critical path.
        outcomes[p].end = Clock::now();
      });
    }
    for (std::thread& thread : threads) thread.join();
    release.wall_s = Since(start);
    Clock::time_point last = start;
    for (size_t p = 0; p < kLrParties; ++p) {
      const PartyOutcome& out = outcomes[p];
      if (out.end >= last) {
        last = out.end;
        release.critical = static_cast<int32_t>(p);
        release.timing = out.timing;
      }
      if (!out.status.ok() && release.status.ok()) release.status = out.status;
      release.raw.push_back(out.raw);
      release.traffic.messages += out.traffic.messages;
      release.traffic.wire_bytes += out.traffic.wire_bytes;
      release.traffic.rounds =
          std::max(release.traffic.rounds, out.traffic.rounds);
      for (const auto& [phase, bytes] : out.traffic.phase_bytes) {
        release.traffic.phase_bytes[phase] += bytes;
      }
    }
    return release;
  }

  Result<std::vector<int64_t>> Reference(uint64_t index) const override {
    const DeploymentConfig config = LrReleaseConfig(deployment_, index);
    SQM_ASSIGN_OR_RETURN(sqm::SqmOptions options,
                         sqm::SqmOptionsFromDeployment(config));
    options.backend = sqm::MpcBackend::kPlaintext;
    SQM_ASSIGN_OR_RETURN(const sqm::PolynomialVector f,
                         sqm::ParsePolynomialVector(config.polynomial));
    const sqm::Matrix x = sqm::GenerateDeploymentMatrix(
        config.rows, sqm::DeploymentCols(config), config.data_seed);
    SQM_ASSIGN_OR_RETURN(SqmReport reference,
                         sqm::SqmEvaluator(options).Evaluate(f, x));
    return std::move(reference.raw);
  }

  DpParams dp() const override { return deployment_.dp; }

  std::map<std::string, std::string> AbsentLayers() const override {
    return {{"mpc.mul_deal_s",
             "the per-party Mul is one bgw.mul span; see mpc.mul_s"},
            {"mpc.mul_recombine_s",
             "the per-party Mul is one bgw.mul span; see mpc.mul_s"}};
  }

 private:
  /// One party's side of a release.
  struct PartyOutcome {
    Status status;
    std::vector<int64_t> raw;
    ReportTiming timing;
    Traffic traffic;
    Clock::time_point end;
  };

  /// Party `party`'s whole session: Create on listener `fd`, the release
  /// over the benchmark's tracing decorator (its spans cost nothing while
  /// obs is off, so traced and untraced releases differ only by tracing),
  /// and Shutdown.
  static void RunParty(const DeploymentConfig& config, size_t party, int fd,
                       PartyOutcome* out) {
    Result<std::unique_ptr<TcpTransport>> tcp = CreateParty(config, party, fd);
    if (!tcp.ok()) {
      out->status = tcp.status();
      return;
    }
    TcpTransport* inner = tcp.ValueOrDie().get();
    TracingTransport transport(inner);
    const Result<SqmReport> report =
        sqm::RunPartySqm(config, party, &transport);
    out->status = report.status();
    if (report.ok()) {
      out->raw = report.ValueOrDie().raw;
      out->timing = TimingOf(report.ValueOrDie());
    }
    out->traffic = TrafficBetween(inner->Snapshot(), sqm::TransportStats{});
    sqm::obs::Span teardown("bench.shutdown", "bench");
    inner->Shutdown();
  }

  const uint64_t seed_;
  LrDeployment deployment_;
};

}  // namespace

Traffic TrafficBetween(const sqm::TransportStats& after,
                       const sqm::TransportStats& before) {
  Traffic traffic;
  traffic.messages = after.totals.messages - before.totals.messages;
  traffic.wire_bytes = after.totals.wire_bytes - before.totals.wire_bytes;
  traffic.rounds = after.totals.rounds - before.totals.rounds;
  for (const sqm::PhaseStats& phase : after.phases) {
    traffic.phase_bytes[phase.phase] += phase.traffic.wire_bytes;
  }
  for (const sqm::PhaseStats& phase : before.phases) {
    traffic.phase_bytes[phase.phase] -= phase.traffic.wire_bytes;
  }
  std::erase_if(traffic.phase_bytes,
                [](const auto& entry) { return entry.second == 0; });
  return traffic;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "pca_lockstep") return std::make_unique<PcaLockstep>(seed);
  if (name == "session_tcp") return std::make_unique<SessionTcp>(seed);
  return nullptr;
}

Result<LrDeployment> PrepareLrDeployment(uint64_t seed) {
  const std::vector<double> unit(kLrFeatures,
                                 1.0 / std::sqrt(double(kLrFeatures)));
  const sqm::PolynomialVector f = sqm::BuildLogisticGradientPolynomial(unit);
  const sqm::SensitivityBound sens = sqm::PolynomialSensitivity(
      f, kGamma, 1.0, kLrMaxFL2, /*quantize_coefficients=*/true);
  SQM_ASSIGN_OR_RETURN(const double mu,
                       sqm::CalibrateSkellamMuSingleRelease(
                           kEpsilon, kDelta, sens.l1, sens.l2));
  LrDeployment deployment;
  deployment.seed = seed;
  deployment.dp = DpParams{kEpsilon, kDelta, kGamma, sens.l1, sens.l2, mu,
                           f.output_dim()};
  DeploymentConfig& base = deployment.base;
  base.session_key = Mix(seed, 0x5e55);
  base.parties.assign(kLrParties, sqm::TcpPeer{});
  base.rows = kLrRecords;
  base.cols = kLrFeatures + 1;
  base.data_seed = Mix(seed, kDataStream);
  base.gamma = kGamma;
  base.mu = mu;
  base.dp_delta = kDelta;
  base.max_f_l2 = kLrMaxFL2;
  base.quantize_coefficients = true;
  base.polynomial = FormatVector(f);
  return deployment;
}

DeploymentConfig LrReleaseConfig(const LrDeployment& deployment,
                                 uint64_t index) {
  DeploymentConfig config = deployment.base;
  sqm::Rng rng(Mix(Mix(deployment.seed, kWeightStream), index));
  std::vector<double> weights(kLrFeatures);
  for (double& w : weights) {
    const double magnitude = 0.05 + 0.95 * rng.NextDouble();
    w = (rng.NextDouble() < 0.5 ? -magnitude : magnitude) /
        std::sqrt(double(kLrFeatures));
  }
  config.polynomial =
      FormatVector(sqm::BuildLogisticGradientPolynomial(weights));
  config.seed = ReleaseSeed(deployment.seed, index);
  return config;
}

Result<std::vector<int>> BindListeners(DeploymentConfig* config) {
  std::vector<sqm::net::Socket> sockets;
  for (sqm::TcpPeer& peer : config->parties) {
    SQM_ASSIGN_OR_RETURN(sqm::net::Socket socket,
                         sqm::net::ListenOn(peer.host, 0));
    SQM_ASSIGN_OR_RETURN(peer.port, sqm::net::LocalPort(socket));
    sockets.push_back(std::move(socket));
  }
  std::vector<int> fds;
  for (sqm::net::Socket& socket : sockets) fds.push_back(socket.Release());
  return fds;
}

Result<std::unique_ptr<TcpTransport>> CreateParty(
    const DeploymentConfig& config, size_t party, int fd) {
  sqm::obs::Span span("bench.create", "bench");
  return TcpTransport::Create(sqm::TcpOptionsFromDeployment(config, party, fd));
}

}  // namespace perfbench
